package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// zipfPair is one (s, imax) a generator draws from at the default
// scale.
type zipfPair struct {
	s    float64
	imax uint64
}

// generatorPairs lists every (s, imax) the generators use at
// ScaleShift 0.
var generatorPairs = []zipfPair{
	{1.2, 16384},   // data-analytics dictionary
	{1.01, 65535},  // data-caching keys
	{1.15, 262143}, // graph-analytics source vertices
	{1.1, 2047},    // web-serving corpus pages
	{1.3, 512},     // graph500 degree sequence
	{1.2, 32767},   // phase-shift hot lines
	{1.1, 65535},   // write-split read and write lines
}

// matchStdlib draws n variates from rand.Zipf and from zipf, each on its
// own rand.Rand seeded alike, and fails on the first difference. It
// then compares the next Int63 of both sources, which pins the number
// of Float64 calls the two made. With guided set, the table has its
// guide from the first attempt rather than after guideAfter attempts.
func matchStdlib(t *testing.T, seed int64, s float64, imax uint64, n int, guided bool) {
	t.Helper()
	wrng, rng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	want, got := rand.NewZipf(wrng, s, 1, imax), &zipf{r: rng, zipfTable: newZipfTable(s, imax)}
	if guided {
		got.guide = new([guideSize]int32)
	}
	for i := 0; i < n; i++ {
		if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("seed %d s=%v imax=%d: draw %d is %d, rand.Zipf drew %d", seed, s, imax, i, g, w)
		}
	}
	if w, g := wrng.Int63(), rng.Int63(); w != g {
		t.Fatalf("seed %d s=%v imax=%d: after %d draws the sources diverge (%d vs %d): Float64 counts differ", seed, s, imax, n, g, w)
	}
}

// FuzzZipfMatchesStdlib checks the guide-table sampler against
// rand.Zipf draw for draw. sExp maps to s = 1 + 2^(sExp/2520 - 24),
// which spans (1 + 6e-8, 5] and so reaches s in (1, 1.001], where the
// guide margin grows with 1/(s-1). imax spans [0, 2^20].
func FuzzZipfMatchesStdlib(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, sExp uint16, imax uint32, draws uint16) {
		s := 1 + math.Exp2(float64(sExp)/2520-24)
		matchStdlib(t, seed, s, uint64(imax)%(1<<20+1), 1+int(draws)%4096, true)
	})
}

// TestZipfMatchesStdlibLong takes 5M draws for every (s, imax) the
// generators use, from a fresh table: the first guideAfter attempts
// run the formula alone, the rest go through the guide.
func TestZipfMatchesStdlibLong(t *testing.T) {
	for _, p := range generatorPairs {
		t.Run(fmt.Sprintf("s=%v/imax=%d", p.s, p.imax), func(t *testing.T) {
			t.Parallel()
			matchStdlib(t, 42, p.s, p.imax, 5_000_000, false)
		})
	}
}

// TestZipfGuideBucketEdges runs single attempts at every bucket edge
// r = b/2^16 and at its two float neighbours, through the guide and
// through the formula alone, and requires the same outcome. The edges
// are where a bucket's verdict is decided, so a margin too thin for
// the computed hinv shows there first.
func TestZipfGuideBucketEdges(t *testing.T) {
	pairs := append([]zipfPair{{1.0005, 1 << 20}, {1.001, 1000}, {3, 100}, {5, 1 << 20}}, generatorPairs...)
	for _, p := range pairs {
		z := newZipfTable(p.s, p.imax)
		z.guide = new([guideSize]int32)
		guided := 0
		for b := 0; b <= guideSize; b++ {
			e := float64(b) / guideSize
			for _, r := range []float64{math.Nextafter(e, 0), e, math.Nextafter(e, 1)} {
				if r < 0 || r >= 1 {
					continue
				}
				kg, okg := z.attempt(r)
				kf, okf := z.formula(r)
				if kg != kf || okg != okf {
					t.Fatalf("s=%v imax=%d r=%v (bucket %d): guide gives (%d, %v), formula (%d, %v)",
						p.s, p.imax, r, int(r*guideSize), kg, okg, kf, okf)
				}
			}
		}
		for _, g := range z.guide {
			if g > 0 {
				guided++
			}
		}
		t.Logf("s=%v imax=%d: %d of %d buckets resolved by the guide", p.s, p.imax, guided, guideSize)
	}
}

// TestZipfTablesShareGuides checks that generators of one instance with
// equal (s, imax) share a table while each keeps its own source, that
// other parameters get their own table, and that the shared guide is
// allocated only once the table's generators have made guideAfter
// attempts between them.
func TestZipfTablesShareGuides(t *testing.T) {
	var tabs zipfTables
	r1, r2 := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))
	a := zipfGen(&tabs, r1, 1.1, 1000)
	b := zipfGen(&tabs, r2, 1.1, 1000)
	c := zipfGen(&tabs, r1, 1.2, 1000)
	d := zipfGen(&tabs, r1, 0.99, 1000) // raised to 1.01
	if a.zipfTable != b.zipfTable || a.r != r1 || b.r != r2 {
		t.Errorf("equal (s, imax): table shared %v, sources %v %v", a.zipfTable == b.zipfTable, a.r == r1, b.r == r2)
	}
	if c.zipfTable == a.zipfTable || d.zipfTable == a.zipfTable || d.q != 1.01 {
		t.Errorf("distinct (s, imax) share a table, or s <= 1 was not raised (q=%v)", d.q)
	}
	if len(tabs) != 3 {
		t.Errorf("%d tables, want 3", len(tabs))
	}
	for a.unguided < guideAfter {
		if a.guide != nil {
			t.Fatalf("guide allocated after %d attempts", a.unguided)
		}
		a.Uint64()
		b.Uint64()
	}
	b.Uint64()
	if a.guide == nil {
		t.Errorf("guide still unallocated after %d attempts", a.unguided)
	}
}
