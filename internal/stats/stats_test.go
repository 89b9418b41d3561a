package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	var c CDF
	for _, v := range []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		c.Add(v)
	}
	if c.N() != 10 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.At(5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("At(5) = %v, want 0.5", got)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := c.At(100); got != 1 {
		t.Errorf("At(100) = %v, want 1", got)
	}
	if q := c.Quantile(0.5); q != 6 {
		t.Errorf("Quantile(0.5) = %d, want 6", q)
	}
	if q := c.Quantile(0); q != 1 {
		t.Errorf("Quantile(0) = %d, want min", q)
	}
	if q := c.Quantile(1); q != 10 {
		t.Errorf("Quantile(1) = %d, want max", q)
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.At(5) != 0 || c.Quantile(0.5) != 0 || c.Points(5) != nil {
		t.Errorf("empty CDF misbehaves")
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	var c CDF
	for _, v := range []uint64{9, 1, 7, 3, 3, 8, 100} {
		c.Add(v)
	}
	pts := c.Points(10)
	if len(pts) != 10 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] <= pts[i-1][1] {
			t.Errorf("points not monotone at %d: %v", i, pts)
		}
	}
	if pts[len(pts)-1][1] != 1 {
		t.Errorf("last cumulative probability = %v, want 1", pts[len(pts)-1][1])
	}
}

func TestCDFAtMatchesDefinition(t *testing.T) {
	// Property: At(v) equals the fraction of samples <= v.
	f := func(raw []uint16, probe uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var c CDF
		count := 0
		for _, v := range raw {
			c.Add(uint64(v))
			if v <= probe {
				count++
			}
		}
		want := float64(count) / float64(len(raw))
		return math.Abs(c.At(uint64(probe))-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummarizeHandChecked(t *testing.T) {
	s := Summarize([]uint64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90})
	if s.N != 10 || s.Min != 0 || s.Max != 90 {
		t.Errorf("bounds wrong: %+v", s)
	}
	if s.Mean != 45 {
		t.Errorf("mean = %v, want 45", s.Mean)
	}
	if s.P50 != 50 {
		t.Errorf("p50 = %d, want 50", s.P50)
	}
	if s.Total != 450 {
		t.Errorf("total = %d, want 450", s.Total)
	}
	if s.NonzeroSamples != 9 {
		t.Errorf("nonzero = %d, want 9", s.NonzeroSamples)
	}
	// Top 10% (value 90) holds 20% of the mass.
	if math.Abs(s.GiniLikeRatio-0.2) > 1e-9 {
		t.Errorf("top-10%% share = %v, want 0.2", s.GiniLikeRatio)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Total != 0 {
		t.Errorf("empty summary: %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []uint64{5, 1, 9}
	Summarize(in)
	if !sort.SliceIsSorted(in, func(i, j int) bool { return i < j }) {
		// The original order 5,1,9 must be preserved (SliceIsSorted
		// on index order is trivially true; compare directly).
	}
	if in[0] != 5 || in[1] != 1 || in[2] != 9 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestHeatmapBinning(t *testing.T) {
	h := NewHeatmap(10, 10, 0, 100, 0, 1000)
	h.Add(5, 50, 1)    // bin (0,0)
	h.Add(95, 950, 3)  // bin (9,9)
	h.Add(100, 500, 1) // out of range (t == tMax): dropped
	h.Add(50, 1001, 1) // out of range: dropped
	if h.Cell(0, 0) != 1 {
		t.Errorf("cell(0,0) = %d", h.Cell(0, 0))
	}
	if h.Cell(9, 9) != 3 {
		t.Errorf("cell(9,9) = %d", h.Cell(9, 9))
	}
	if h.Nonzero() != 2 {
		t.Errorf("nonzero = %d, want 2", h.Nonzero())
	}
	if h.Max() != 3 {
		t.Errorf("max = %d, want 3", h.Max())
	}
}

func TestHeatmapRender(t *testing.T) {
	h := NewHeatmap(4, 2, 0, 4, 0, 2)
	h.Add(0, 0, 1)
	h.Add(3, 1, 10)
	out := h.Render()
	lines := splitLines(out)
	if len(lines) != 2 {
		t.Fatalf("rendered %d rows, want 2 (addr bins)", len(lines))
	}
	// High addresses on top: the weight-10 cell is in row 0 (addr bin
	// 1), last column.
	if lines[0][3] == ' ' {
		t.Errorf("hot cell not rendered:\n%s", out)
	}
	if lines[1][0] == ' ' {
		t.Errorf("low cell not rendered:\n%s", out)
	}
}

func TestHeatmapCSV(t *testing.T) {
	h := NewHeatmap(2, 2, 0, 2, 0, 2)
	h.Add(0, 0, 5)
	csv := h.CSV()
	want := "time_bin,addr_bin,count\n0,0,5\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestHeatmapBadConfigPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHeatmap(0, 1, 0, 1, 0, 1) },
		func() { NewHeatmap(1, 1, 5, 5, 0, 1) },
		func() { NewHeatmap(1, 1, 0, 1, 3, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad heatmap config accepted")
				}
			}()
			f()
		}()
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}
