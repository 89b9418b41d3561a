// Package fixture exercises the suppression-directive grammar and the
// directive audit: one directive covering a line with findings from
// two analyzers, directives naming the wrong analyzer, stale
// directives, malformed ones, and a named allow on a determinism rule.
package fixture

import (
	"sort"
	"time"
)

// oneDirectiveTwoAnalyzers hits the multi-finding edge: the single
// line below carries both a maprange finding (unsorted drain) and a
// floatsum finding (float accumulation), and the one ordered
// directive suppresses both.
func oneDirectiveTwoAnalyzers(m map[string]float64) ([]string, float64) {
	var keys []string
	var sum float64
	//tmplint:ordered drain and sum feed a sorted report downstream
	for k, v := range m { keys = append(keys, k); sum += v }
	return keys, sum
}

// wrongAnalyzer names an analyzer that has no finding here, so the
// maprange finding survives and the allow directive is reported
// unused.
func wrongAnalyzer(m map[string]int) []int {
	var out []int
	/* want `unused tmplint:allow wallclock directive` */ //tmplint:allow wallclock misdirected suppression
	for _, v := range m { // want `appends to a slice that is never sorted`
		out = append(out, v)
	}
	return out
}

// stale sits above code that stopped ranging over a map; the audit
// demands its deletion.
func stale(xs []float64) float64 {
	var sum float64
	/* want `unused tmplint:ordered directive` */ //tmplint:ordered slice order is fixed by the caller
	for _, v := range xs {
		sum += v
	}
	return sum
}

// sortedDrain ranges over a map without a float accumulation, and the
// drained keys are sorted, so neither maprange nor floatsum has a
// finding to suppress: the directive is stale.
func sortedDrain(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	/* want `unused tmplint:ordered directive` */ //tmplint:ordered keys are sorted below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// unjustified suppresses a real finding but gives reviewers nothing,
// which is itself a finding.
func unjustified(m map[string]float64) float64 {
	var sum float64
	/* want `without a justification` */ //tmplint:ordered
	for _, v := range m {
		sum += v
	}
	return sum
}

// unknownVerb is a typo silently doing nothing without the audit.
func unknownVerb(m map[string]int) int {
	n := 0
	/* want `unknown tmplint directive` */ //tmplint:frobnicate cleanup later
	for range m {
		n++
	}
	return n
}

// unknownAnalyzer names a check that does not exist.
func unknownAnalyzer(m map[string]int) int {
	n := 0
	/* want `names unknown analyzer` */ //tmplint:allow nosuchcheck typo for maprange
	for range m {
		n++
	}
	return n
}

// namedAllowOK is the sanctioned generalized form: the right analyzer,
// with a justification, on a line with a real finding.
func namedAllowOK(m map[string]int) []int {
	var out []int
	//tmplint:allow maprange order is rinsed by the deterministic consumer
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// allowWallClock suppresses one of the folded determinism rules by
// name: the justified allow covers the wallclock finding on the line
// below, so the finding is dropped and the directive counts as used.
func allowWallClock() int64 {
	//tmplint:allow wallclock host-side log stamp that never reaches simulator state
	return time.Now().UnixNano()
}
