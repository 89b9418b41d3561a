package core

import (
	"testing"

	"tieredmem/internal/cache"
	"tieredmem/internal/cpu"
	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/tlb"
	"tieredmem/internal/trace"
)

// deviceTestMachine builds a machine whose middle tier is a
// device-profiled CXL expander; the tiny top tier forces most
// first-touch allocations down into it.
func deviceTestMachine(t *testing.T) *cpu.Machine {
	t.Helper()
	chain, err := mem.ParseTierChain("dram:4/cxl:60/nvm:64")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.DefaultConfig()
	cfg.Cores = 2
	cfg.PrefetchDegree = 0
	cfg.L1D = cache.Config{SizeBytes: 4 << 10, Ways: 2}
	cfg.L2 = cache.Config{SizeBytes: 16 << 10, Ways: 4}
	cfg.LLC = cache.Config{SizeBytes: 64 << 10, Ways: 4}
	cfg.L1TLB = tlb.Config{Entries: 16, Ways: 4}
	cfg.L2TLB = tlb.Config{Entries: 64, Ways: 4}
	m, err := cpu.NewMachine(cfg, chain)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMethodDevString(t *testing.T) {
	if MethodDev.String() != "devprof" {
		t.Errorf("MethodDev.String() = %q", MethodDev.String())
	}
}

func TestRankIncludesDeviceColumn(t *testing.T) {
	ps := PageStat{Evidence: mem.Evidence{Abit: 2, Trace: 3, Dev: 4}}
	if ps.Rank(MethodDev) != 4 {
		t.Errorf("Rank(devprof) = %d, want 4", ps.Rank(MethodDev))
	}
	if ps.Rank(MethodCombined) != 9 {
		t.Errorf("Rank(tmp) = %d, want abit+ibs+dev = 9", ps.Rank(MethodCombined))
	}
}

// TestEffectiveMethodDevFallsBackWithoutTracker pins the no-device
// degradation: asking for device-only evidence on a machine with no
// tracker falls back to the combined rank instead of ranking every
// page zero.
func TestEffectiveMethodDevFallsBackWithoutTracker(t *testing.T) {
	m := testMachine(t, 64)
	p, _ := New(smallConfig(), m, nil)
	if got := p.EffectiveMethod(MethodDev); got != MethodCombined {
		t.Errorf("EffectiveMethod(devprof) = %v without a tracker, want tmp", got)
	}
}

// TestQuarantineDevprofDegradesToCombined drives the device tracker's
// fault rate to 100% and checks the profiler quarantines it exactly
// like a host mechanism: sticky, reported, event-logged, and degraded
// to the combined host rank — with the host mechanisms untouched.
func TestQuarantineDevprofDegradesToCombined(t *testing.T) {
	m := deviceTestMachine(t)
	cfg := smallConfig()
	cfg.EnableDevProf = true
	cfg.Gating = false
	cfg.QuarantineMinEvents = 8
	p, err := New(cfg, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Register(1)
	spec, err := fault.ParseSpec("devprof.overflow=1")
	if err != nil {
		t.Fatal(err)
	}
	p.SetFaultPlane(fault.New(spec, 1))
	tr := telemetry.New()
	p.SetTracer(tr)
	// Distinct first-touch pages: 4 land in dram, the rest in the
	// device tier, so the tracker stages well past MinEvents before
	// the epoch flush — which the plane makes overflow, losing all.
	for i := uint64(0); i < 32; i++ {
		m.Execute(trace.Ref{PID: 1, VAddr: i * 4096, Kind: trace.Load})
	}
	p.HarvestEpoch()
	if p.DevProf == nil || !p.DevProf.Quarantined() {
		t.Fatalf("100%%-lossy device flush not quarantined (stats=%+v)", p.DevProf.Stats())
	}
	if got := p.EffectiveMethod(MethodDev); got != MethodCombined {
		t.Errorf("EffectiveMethod(devprof) = %v after quarantine, want tmp", got)
	}
	if got := p.EffectiveMethod(MethodCombined); got != MethodCombined {
		t.Errorf("EffectiveMethod(tmp) = %v; host mechanisms must be untouched", got)
	}
	if qs := p.QuarantinedMechanisms(); len(qs) != 1 || qs[0] != "devprof" {
		t.Errorf("QuarantinedMechanisms = %v, want [devprof]", qs)
	}
	found := false
	for w := tr.Events(); w.Next(); {
		e := w.Event()
		if e.Kind == telemetry.KindQuarantine && e.Name == "devprof" {
			found = true
			if e.A == 0 || e.B == 0 {
				t.Errorf("quarantine event has empty evidence: %+v", e)
			}
		}
	}
	if !found {
		t.Errorf("no KindQuarantine event emitted for devprof")
	}
}
