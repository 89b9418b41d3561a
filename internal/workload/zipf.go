package workload

import (
	"math"
	"math/rand"
)

// zipf draws the same variates as math/rand.Zipf on the same *rand.Rand,
// draw for draw and Float64 for Float64, at about half the cost.
//
// The stdlib's rejection-inversion loop draws r = Float64() once per
// attempt, maps it to ur = hxm + r*hx0minusHxm and x = hinv(ur) with
// one Log and one Exp, rounds x to k and accepts k at once when x lies
// in [k-s, k+0.5); only the rest pay a second Exp and Log in the
// rejection test. A guide table splits [0, 1) into guideSize buckets.
// The first draw that lands in a bucket computes x at the bucket's two
// ends with the stdlib formula. When both ends round to the same k and
// sit more than guideMargin inside k's accept-at-once interval, every r
// in the bucket yields that k: ur is monotone in r (IEEE multiply by a
// constant and add are), so every ur of the bucket lies between the
// ends' values, and the margin covers the computed hinv's rounding
// error. The bucket then stores k+1, and later draws in it return k
// with no Exp or Log. Any other bucket stores guideFormula, and its
// draws run the stdlib's attempt verbatim.
type zipf struct {
	r *rand.Rand
	*zipfTable
}

// zipfTable is rand.NewZipf's constants for one (s, imax) and the guide
// over them. Generators of one workload instance with equal (s, imax)
// share one through zipfTables. Instances never share, so sharded
// cells, which build their own instances on their own goroutines, fill
// separate guides.
type zipfTable struct {
	imax         float64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
	// unguided counts the attempts made before the guide exists.
	unguided int
	guide    *[guideSize]int32
}

const (
	// guideSize is the number of guide buckets. r*guideSize is exact
	// for every r Float64 returns, so a draw's bucket is exact too.
	guideSize = 1 << 16
	// guideAfter is how many attempts a table runs through the formula
	// before it allocates its guide. Deciding a bucket costs two hinv
	// evaluations, which repays only once draws come back to it, while
	// a run's set-up (1,024 references) makes a few hundred attempts:
	// allocating and filling the guide there would only slow set-up.
	guideAfter = 1 << 12
	// guideUnset marks a bucket no draw has reached yet.
	guideUnset int32 = 0
	// guideFormula marks a bucket whose draws run the stdlib formula.
	guideFormula int32 = -1
)

// The constants and h, hinv and formula below keep the expression
// shapes of math/rand's zipf.go: where the compiler fuses a multiply
// and an add, it fuses the stdlib's code under the same rule.

func (z *zipfTable) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipfTable) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// newZipfTable computes rand.NewZipf(r, s, 1, imax)'s constants. s must
// exceed 1, as rand.NewZipf requires.
func newZipfTable(s float64, imax uint64) *zipfTable {
	z := &zipfTable{imax: float64(imax), v: 1, q: s}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	return z
}

// Uint64 returns a value drawn from the Zipf distribution, equal to
// what rand.Zipf.Uint64 returns from the same generator state.
func (z *zipf) Uint64() uint64 {
	for {
		if k, ok := z.attempt(z.r.Float64()); ok {
			return k
		}
	}
}

// attempt is one rejection-inversion attempt for the uniform draw r:
// the guide's k when r's bucket has one, else the stdlib formula's.
func (z *zipfTable) attempt(r float64) (uint64, bool) {
	if z.guide == nil {
		if z.unguided < guideAfter {
			z.unguided++
			return z.formula(r)
		}
		z.guide = new([guideSize]int32)
	}
	b := int(r*guideSize) & (guideSize - 1)
	g := z.guide[b]
	if g == guideUnset {
		g = z.fillBucket(b)
	}
	if g > 0 {
		return uint64(g - 1), true
	}
	return z.formula(r)
}

// formula is math/rand.Zipf's attempt verbatim.
func (z *zipfTable) formula(r float64) (uint64, bool) {
	ur := z.hxm + r*z.hx0minusHxm
	x := z.hinv(ur)
	k := math.Floor(x + 0.5)
	if k-x <= z.s {
		return uint64(k), true
	}
	if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
		return uint64(k), true
	}
	return 0, false
}

// fillBucket decides bucket b from x at its ends r = b/guideSize and
// (b+1)/guideSize, stores the verdict and returns it.
func (z *zipfTable) fillBucket(b int) int32 {
	lo, hi := z.edgeX(b), z.edgeX(b+1)
	if lo > hi {
		lo, hi = hi, lo
	}
	// Both ends a margin inside [k-0.5, k+0.5) round to k, and a margin
	// above k-s are accepted at once.
	g := guideFormula
	k := math.Floor(hi + 0.5)
	if m := z.guideMargin(k); k >= 0 && k+1 <= math.MaxInt32 && lo-m >= k-0.5 && lo-m >= k-z.s && hi+m < k+0.5 {
		g = int32(k) + 1
	}
	z.guide[b] = g
	return g
}

// edgeX is the stdlib's x for the draw r = b/guideSize.
func (z *zipfTable) edgeX(b int) float64 {
	r := float64(b) / guideSize
	ur := z.hxm + r*z.hx0minusHxm
	return z.hinv(ur)
}

// guideMargin is how far inside k's accept-at-once interval both ends
// of a bucket must lie. It must exceed twice the computed hinv's error
// near k. Log and Exp are each within an ulp, and the error that
// reaches x is about 2^-53·(x+v)·(3·log(x+v) + 1/(q-1) + 3): Log's
// rounding is divided by 1-q, and Exp turns the rounding of its
// argument into a relative error of x+v. With x+v <= k+v+1, the margin
// is over 2^12 times twice that error. It grows without limit as q
// falls to 1, so such a table sends every bucket to the formula. NaN
// constants give a NaN margin, which fails every comparison in
// fillBucket and so also picks the formula.
func (z *zipfTable) guideMargin(k float64) float64 {
	a := k + z.v + 1
	return a * 0x1p-40 * (3*math.Log(a) - z.oneminusQinv + 4)
}

// zipfTables is one workload instance's Zipf tables, one per (s, imax).
// Tables are filled lazily by the instance's own Fill, so an instance
// must not be shared across goroutines, which workloads already are
// not.
type zipfTables []*zipfTable

// zipfGen builds a Zipf generator over [0, imax] with the skew
// CloudSuite-style key popularity follows, sharing its table with the
// instance's other generators of equal (s, imax). rand.Zipf needs
// s > 1, so any s <= 1 is raised to 1.01.
func zipfGen(tabs *zipfTables, rng *rand.Rand, s float64, imax uint64) *zipf {
	if s <= 1.0 {
		s = 1.01
	}
	for _, t := range *tabs {
		if t.q == s && t.imax == float64(imax) {
			return &zipf{r: rng, zipfTable: t}
		}
	}
	t := newZipfTable(s, imax)
	*tabs = append(*tabs, t)
	return &zipf{r: rng, zipfTable: t}
}
