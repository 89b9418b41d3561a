// Package telemetry stands in for internal/telemetry to pin the
// telemetry analyzer's import ban: the layer records the virtual time
// it is handed, so importing a clock or a global rand source is itself
// the finding.
package telemetry

import (
	"math/rand"           // want `internal/telemetry imports "math/rand"`
	randv2 "math/rand/v2" // want `internal/telemetry imports "math/rand/v2"`
	"time"                // want `internal/telemetry imports "time"`
)

var (
	_ = time.Duration(0)
	_ = rand.New
	_ = randv2.New
)
