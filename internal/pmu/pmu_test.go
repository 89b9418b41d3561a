package pmu

import "testing"

func TestTrackAndCount(t *testing.T) {
	p := New(4, 1000)
	p.Track(EvLLCMiss)
	p.Add(EvLLCMiss, 5)
	p.Add(EvLLCMiss, 3)
	got, frac := p.Count(EvLLCMiss)
	if got != 8 || frac != 1 {
		t.Errorf("Count = (%d, %v), want (8, 1)", got, frac)
	}
	if p.Raw(EvLLCMiss) != 8 {
		t.Errorf("Raw = %d, want 8", p.Raw(EvLLCMiss))
	}
}

func TestUntrackedEventIgnored(t *testing.T) {
	p := New(4, 1000)
	p.Add(EvL1Miss, 100)
	if got, _ := p.Count(EvL1Miss); got != 0 {
		t.Errorf("untracked event counted: %d", got)
	}
}

func TestTrackIdempotent(t *testing.T) {
	p := New(4, 1000)
	p.Track(EvLLCMiss)
	p.Track(EvLLCMiss)
	if len(p.Tracked()) != 1 {
		t.Errorf("Tracked = %v, want one entry", p.Tracked())
	}
}

func TestNotMultiplexedWithinRegisterBudget(t *testing.T) {
	p := New(4, 1000)
	for _, e := range []Event{EvLLCMiss, EvDTLBMiss, EvRetiredLoads, EvRetiredStores} {
		p.Track(e)
	}
	if p.Multiplexed() {
		t.Errorf("4 events on 4 registers reported multiplexed")
	}
}

func TestMultiplexingLosesAndScales(t *testing.T) {
	p := New(2, 100) // 2 registers, rotate every 100ns
	events := []Event{EvLLCMiss, EvDTLBMiss, EvRetiredLoads, EvRetiredStores}
	for _, e := range events {
		p.Track(e)
	}
	if !p.Multiplexed() {
		t.Fatalf("4 events on 2 registers not multiplexed")
	}
	// Drive time forward, adding one increment per event per tick.
	now := int64(0)
	for i := 0; i < 1000; i++ {
		now += 100
		for _, e := range events {
			p.Add(e, 1)
		}
		p.Tick(now)
	}
	for _, e := range events {
		raw := p.Raw(e)
		if raw >= 1000 {
			t.Errorf("%v raw = %d; multiplexing should lose increments", e, raw)
		}
		scaled, frac := p.Count(e)
		if frac <= 0 || frac >= 1 {
			t.Errorf("%v enabled fraction = %v, want in (0,1)", e, frac)
		}
		// The perf-style estimate must be in the right ballpark
		// (within 2x of the true 1000).
		if scaled < 500 || scaled > 2000 {
			t.Errorf("%v scaled estimate = %d, want ~1000", e, scaled)
		}
	}
}

// TestRotationFollowsQuantum pins multiplexing to its quantum: with
// ticks a tenth of a quantum apart, the register assignment rotates on
// every tenth tick and holds in between.
func TestRotationFollowsQuantum(t *testing.T) {
	const tick = 100
	p := New(1, 10*tick)
	p.Track(EvLLCMiss)
	p.Track(EvDTLBMiss)
	for i := 1; i <= 50; i++ {
		before := p.rrStart
		p.Tick(int64(i) * tick)
		if rotated := p.rrStart != before; rotated != (i%10 == 0) {
			t.Fatalf("tick %d: rotated = %v, want a rotation on every 10th tick only", i, rotated)
		}
	}
}

func TestTickMonotonic(t *testing.T) {
	p := New(1, 100)
	p.Track(EvLLCMiss)
	p.Tick(100)
	p.Tick(50) // time going backwards must be a no-op, not a panic
	p.Tick(200)
}

func TestEventString(t *testing.T) {
	if EvLLCMiss.String() != "llc-miss" || EvRetiredOps.String() != "retired-ops" {
		t.Errorf("event names wrong: %v %v", EvLLCMiss, EvRetiredOps)
	}
	if Event(99).String() != "event(99)" {
		t.Errorf("unknown event name: %v", Event(99))
	}
}

func TestZeroRegistersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("New(0, ...) did not panic")
		}
	}()
	New(0, 100)
}
