// Package fixture exercises the wallclock analyzer.
package fixture

import (
	"math/rand"
	"time"
)

func wallTime() int64 {
	t := time.Now()             // want `time.Now in internal/ code`
	return int64(time.Since(t)) // want `time.Since in internal/ code`
}

// callsWallTime is not a second finding: wallTime's own body carries
// the direct ones, so the wallclock rule counts laundering only
// through callees outside internal/.
func callsWallTime() int64 {
	return wallTime() + 1
}

func virtualTimeOK(nowNS int64) int64 {
	// Arithmetic on virtual timestamps and duration constants is fine.
	return nowNS + int64(5*time.Millisecond)
}

func deadlineUntil(t time.Time) time.Duration {
	return time.Until(t) // want `time.Until in internal/ code`
}

func tickers() {
	tk := time.NewTicker(time.Second) // want `time.NewTicker in internal/ code`
	defer tk.Stop()
	tm := time.NewTimer(time.Second) // want `time.NewTimer in internal/ code`
	defer tm.Stop()
	<-time.After(time.Second) // want `time.After in internal/ code`
}

func deferredWork() {
	time.AfterFunc(time.Second, func() {}) // want `time.AfterFunc in internal/ code`
}

func sleepyPoll() {
	time.Sleep(time.Millisecond) // want `time.Sleep in internal/ code`
}

func globalRand() int {
	return rand.Intn(10) // want `global rand.Intn in internal/ code`
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { // want `global rand.Shuffle in internal/ code`
		xs[i], xs[j] = xs[j], xs[i]
	})
}

func seededOK(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // ok: explicit seeded source
	z := rand.NewZipf(r, 1.2, 1, 1<<20) // ok: seeded generator constructor
	_ = z.Uint64()
	return r.Intn(10) // ok: method on a seeded *rand.Rand
}
