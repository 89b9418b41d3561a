// Package stats provides the small statistics toolkit the experiment
// harnesses use: empirical CDFs (Fig. 5), time-by-address heatmaps
// (Figs. 3 and 4), and summary statistics. Everything is
// deterministic and allocation-conscious.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution over uint64 samples.
type CDF struct {
	values []uint64
	sorted bool
}

// Add appends one observation.
func (c *CDF) Add(v uint64) {
	c.values = append(c.values, v)
	c.sorted = false
}

// N returns the observation count.
func (c *CDF) N() int { return len(c.values) }

func (c *CDF) ensure() {
	if !c.sorted {
		sort.Slice(c.values, func(i, j int) bool { return c.values[i] < c.values[j] })
		c.sorted = true
	}
}

// At returns P(X <= v).
func (c *CDF) At(v uint64) float64 {
	if len(c.values) == 0 {
		return 0
	}
	c.ensure()
	idx := sort.Search(len(c.values), func(i int) bool { return c.values[i] > v })
	return float64(idx) / float64(len(c.values))
}

// Quantile returns the q-th quantile (q in [0,1]).
func (c *CDF) Quantile(q float64) uint64 {
	if len(c.values) == 0 {
		return 0
	}
	c.ensure()
	if q <= 0 {
		return c.values[0]
	}
	if q >= 1 {
		return c.values[len(c.values)-1]
	}
	idx := int(q * float64(len(c.values)))
	if idx >= len(c.values) {
		idx = len(c.values) - 1
	}
	return c.values[idx]
}

// Points samples the CDF at n evenly spaced probabilities for
// plotting; it returns (value, cumulative-probability) pairs.
func (c *CDF) Points(n int) [][2]float64 {
	if n <= 0 || len(c.values) == 0 {
		return nil
	}
	c.ensure()
	out := make([][2]float64, 0, n)
	for i := 1; i <= n; i++ {
		q := float64(i) / float64(n)
		out = append(out, [2]float64{float64(c.Quantile(q)), q})
	}
	return out
}

// Summary holds the usual aggregates.
type Summary struct {
	N              int
	Min, Max       uint64
	Mean, Stddev   float64
	P50, P90, P99  uint64
	Total          uint64
	GiniLikeRatio  float64 // share of total mass held by the top 10% of samples
	NonzeroSamples int
}

// Summarize computes aggregates over samples.
func Summarize(samples []uint64) Summary {
	s := Summary{N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sorted := make([]uint64, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	var sum float64
	for _, v := range sorted {
		sum += float64(v)
		s.Total += v
		if v > 0 {
			s.NonzeroSamples++
		}
	}
	s.Mean = sum / float64(len(sorted))
	var ss float64
	for _, v := range sorted {
		d := float64(v) - s.Mean
		ss += d * d
	}
	s.Stddev = math.Sqrt(ss / float64(len(sorted)))
	s.P50 = sorted[len(sorted)/2]
	s.P90 = sorted[len(sorted)*9/10]
	s.P99 = sorted[len(sorted)*99/100]
	top10 := sorted[len(sorted)*9/10:]
	var topSum uint64
	for _, v := range top10 {
		topSum += v
	}
	if s.Total > 0 {
		s.GiniLikeRatio = float64(topSum) / float64(s.Total)
	}
	return s
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%d p50=%d p90=%d p99=%d max=%d mean=%.1f top10%%=%.0f%%",
		s.N, s.Min, s.P50, s.P90, s.P99, s.Max, s.Mean, s.GiniLikeRatio*100)
}
