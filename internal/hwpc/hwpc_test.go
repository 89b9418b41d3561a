package hwpc

import (
	"testing"

	"tieredmem/internal/cpu"
	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/pmu"
)

type toggleSpy struct{ enabled bool }

func (s *toggleSpy) Enable()  { s.enabled = true }
func (s *toggleSpy) Disable() { s.enabled = false }

func testMachine(t *testing.T) *cpu.Machine {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.Cores = 1
	m, err := cpu.NewMachine(cfg, mem.DefaultTiers(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGatingDisablesOnQuietAndReenables(t *testing.T) {
	m := testMachine(t)
	cfg := Config{Window: 100, Threshold: 0.2, ReadCost: 1}
	mon, _ := New(cfg, m)
	spy := &toggleSpy{enabled: true}
	mon.Gate(pmu.EvLLCMiss, spy)

	// Window 1: a burst of misses establishes the max.
	m.Core(0).PMU.Add(pmu.EvLLCMiss, 1000)
	mon.TickIfDue(100)
	if !spy.enabled {
		t.Fatalf("active window disabled the target")
	}
	// Window 2: silence (<20% of max): gate off.
	mon.TickIfDue(200)
	if spy.enabled {
		t.Fatalf("quiet window did not disable the target")
	}
	// Window 3: activity resumes above threshold: gate on.
	m.Core(0).PMU.Add(pmu.EvLLCMiss, 500)
	mon.TickIfDue(300)
	if !spy.enabled {
		t.Fatalf("busy window did not re-enable the target")
	}
	states := mon.States()
	if len(states) != 1 || states[0].Toggles != 2 || states[0].MaxDelta != 1000 {
		t.Errorf("gauge state = %+v", states[0])
	}
}

func TestThresholdBoundary(t *testing.T) {
	m := testMachine(t)
	mon, _ := New(Config{Window: 100, Threshold: 0.2, ReadCost: 1}, m)
	spy := &toggleSpy{enabled: true}
	mon.Gate(pmu.EvLLCMiss, spy)
	m.Core(0).PMU.Add(pmu.EvLLCMiss, 1000)
	mon.TickIfDue(100)
	// Exactly 20% of the max must count as active (paper: "more than
	// 20%" is active; we use >= to keep the boundary stable).
	m.Core(0).PMU.Add(pmu.EvLLCMiss, 200)
	mon.TickIfDue(200)
	if !spy.enabled {
		t.Errorf("boundary window (exactly 20%%) gated off")
	}
}

func TestTickScheduling(t *testing.T) {
	m := testMachine(t)
	mon, _ := New(Config{Window: 100, Threshold: 0.2, ReadCost: 1}, m)
	if _, ran := mon.TickIfDue(99); ran {
		t.Errorf("tick ran early")
	}
	if _, ran := mon.TickIfDue(100); !ran {
		t.Errorf("tick did not run at the window edge")
	}
	if mon.Reads != 1 {
		t.Errorf("Reads = %d, want 1", mon.Reads)
	}
}

func TestBadConfig(t *testing.T) {
	m := testMachine(t)
	if _, err := New(Config{Window: 0, Threshold: 0.2}, m); err == nil {
		t.Errorf("zero window accepted")
	}
	if _, err := New(Config{Window: 1, Threshold: 1.5}, m); err == nil {
		t.Errorf("threshold >1 accepted")
	}
}

func TestFaultWrapSkipsWindowAndResyncs(t *testing.T) {
	m := testMachine(t)
	mon, _ := New(Config{Window: 100, Threshold: 0.2, ReadCost: 1}, m)
	spy := &toggleSpy{enabled: true}
	mon.Gate(pmu.EvLLCMiss, spy)

	spec, _ := fault.ParseSpec("hwpc.wrap=1")
	plane := fault.New(spec, 3)
	mon.SetFaultPlane(plane)

	// Window 1: last==0, so even a rate-1 wrap cannot fire; the burst
	// establishes the max.
	m.Core(0).PMU.Add(pmu.EvLLCMiss, 1000)
	mon.TickIfDue(100)
	if !spy.enabled {
		t.Fatalf("active window disabled the target")
	}

	// Window 2: the read wraps. A silent window would normally gate the
	// target off — the wrap must discard the window instead.
	mon.SetFaultPlane(plane)
	mon.TickIfDue(200)
	if mon.Wraps != 1 {
		t.Fatalf("Wraps = %d, want 1", mon.Wraps)
	}
	if !spy.enabled {
		t.Errorf("wrapped window gated the target")
	}

	// Window 3: clean read, but the baseline is corrupt — resync only.
	mon.SetFaultPlane(nil)
	mon.TickIfDue(300)
	if !spy.enabled {
		t.Errorf("resync window gated the target")
	}
	st := mon.States()[0]
	if st.MaxDelta != 1000 {
		t.Errorf("maxDelta = %d after wrap+resync, want 1000 untouched", st.MaxDelta)
	}
	if st.Wraps != 1 {
		t.Errorf("gauge wraps = %d, want 1", st.Wraps)
	}

	// Window 4: normal operation resumes; a quiet window gates off.
	mon.TickIfDue(400)
	if spy.enabled {
		t.Errorf("post-resync quiet window did not gate off")
	}
	if f, a := mon.FaultRate(); f != 1 || a != 4 {
		t.Errorf("FaultRate = %d/%d, want 1/4", f, a)
	}
}

func TestQuarantineFailsOpen(t *testing.T) {
	m := testMachine(t)
	mon, _ := New(Config{Window: 100, Threshold: 0.2, ReadCost: 1}, m)
	spy := &toggleSpy{enabled: true}
	mon.Gate(pmu.EvLLCMiss, spy)
	m.Core(0).PMU.Add(pmu.EvLLCMiss, 1000)
	mon.TickIfDue(100)
	mon.TickIfDue(200) // quiet: gate off
	if spy.enabled {
		t.Fatalf("quiet window did not gate off")
	}
	mon.Quarantine()
	if !mon.Quarantined() {
		t.Fatalf("not quarantined")
	}
	if !spy.enabled {
		t.Errorf("quarantined monitor did not fail open (target still gated off)")
	}
	if _, ran := mon.TickIfDue(300); ran {
		t.Errorf("quarantined monitor still ticking")
	}
}

func TestZeroRatePlaneInertMonitor(t *testing.T) {
	run := func(p *fault.Plane) []GaugeState {
		m := testMachine(t)
		mon, _ := New(Config{Window: 100, Threshold: 0.2, ReadCost: 1}, m)
		spy := &toggleSpy{enabled: true}
		mon.Gate(pmu.EvLLCMiss, spy)
		mon.SetFaultPlane(p)
		for w := int64(1); w <= 6; w++ {
			if w%2 == 1 {
				m.Core(0).PMU.Add(pmu.EvLLCMiss, 500)
			}
			mon.TickIfDue(w * 100)
		}
		return mon.States()
	}
	a, b := run(nil), run(fault.New(fault.Spec{}, 42))
	if len(a) != 1 || a[0] != b[0] {
		t.Errorf("zero-rate plane perturbed gating: %+v vs %+v", a, b)
	}
}
