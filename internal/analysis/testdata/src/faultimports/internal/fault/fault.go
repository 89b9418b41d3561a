// Package fault stands in for internal/fault to pin the faultrand
// analyzer's import ban: the plane draws only from its seed-derived
// splitmix64 streams, so importing a clock or any other rand source is
// itself the finding.
package fault

import (
	crand "crypto/rand"   // want `internal/fault imports "crypto/rand"`
	"math/rand"           // want `internal/fault imports "math/rand"`
	randv2 "math/rand/v2" // want `internal/fault imports "math/rand/v2"`
	"time"                // want `internal/fault imports "time"`
)

var (
	_ = crand.Reader
	_ = time.Duration(0)
	_ = rand.New
	_ = randv2.New
)
