// Package invariant stands in for internal/fault/invariant: the
// fault plane's import ban covers its subpackages too.
package invariant

import "time" // want `internal/fault imports "time"`

var _ = time.Duration(0)
