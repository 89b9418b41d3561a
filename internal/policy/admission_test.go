package policy

import (
	"math"
	"testing"
)

// TestAdmissionBudgetNS pins the budget at the edges of its fraction: a
// NaN or non-positive fraction disables admission (budget 0), and a
// budget past the int64 range saturates instead of converting to an
// implementation-defined value (negative on amd64), which would leave
// admission silently off.
func TestAdmissionBudgetNS(t *testing.T) {
	for _, tc := range []struct {
		frac float64
		want int64
	}{
		{0.25, 250_000},
		{1e6, 1e12},
		{0, 0},
		{-1, 0},
		{math.NaN(), 0},
		{math.Inf(-1), 0},
		{math.Inf(1), math.MaxInt64},
		{1e300, math.MaxInt64},
		{9.3e12, math.MaxInt64}, // 9.3e18, just past 2^63
	} {
		if got := AdmissionBudgetNS(1_000_000, tc.frac); got != tc.want {
			t.Errorf("AdmissionBudgetNS(1e6, %v) = %d, want %d", tc.frac, got, tc.want)
		}
	}
}
