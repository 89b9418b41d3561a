package pml

import (
	"testing"

	"tieredmem/internal/mem"
	"tieredmem/internal/trace"
)

func dirtyOutcome(paddr uint64) *trace.Outcome {
	return &trace.Outcome{
		Ref:      trace.Ref{PID: 1, Kind: trace.Store},
		PAddr:    paddr,
		DirtySet: true,
	}
}

func TestLogsOnlyDirtySetEvents(t *testing.T) {
	e, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.ObserveRetire(&trace.Outcome{Ref: trace.Ref{Kind: trace.Store}}, 3) // D already set
	e.ObserveRetire(&trace.Outcome{Ref: trace.Ref{Kind: trace.Load}}, 3)
	if e.Stats().Logged != 0 {
		t.Errorf("logged %d events without DirtySet", e.Stats().Logged)
	}
	e.ObserveRetire(dirtyOutcome(0x1234), 3)
	if e.Stats().Logged != 1 || e.Pending() != 1 {
		t.Errorf("DirtySet event not logged")
	}
}

func TestLogFullDrainsIntoDescriptors(t *testing.T) {
	phys, err := mem.NewPhysMem(mem.DefaultTiers(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	pfn, _ := phys.Alloc(mem.FastTier, 1, 0)
	cfg := Config{LogSize: 4, DrainCost: 1000, PerEntryCost: 1}
	e, _ := New(cfg, phys)
	var batches int
	e.SetDrainObserver(func(pages []uint64) {
		batches++
		if len(pages) != 4 {
			t.Errorf("drained batch of %d, want 4", len(pages))
		}
	})
	var charged int64
	for i := 0; i < 4; i++ {
		charged += e.ObserveRetire(dirtyOutcome(pfn.PAddrOf()+uint64(i)), 3)
	}
	if batches != 1 {
		t.Fatalf("drains = %d, want 1 at log-full", batches)
	}
	if phys.Page(pfn).Epoch.Write != 4 {
		t.Errorf("Epoch.Write = %d, want 4", phys.Page(pfn).Epoch.Write)
	}
	// The fourth append paid the drain notification.
	if charged < 1000 {
		t.Errorf("drain cost not charged: %d", charged)
	}
	if e.Pending() != 0 {
		t.Errorf("log not emptied")
	}
}

func TestFlushDrainsPartial(t *testing.T) {
	phys, _ := mem.NewPhysMem(mem.DefaultTiers(8, 8))
	pfn, _ := phys.Alloc(mem.FastTier, 1, 0)
	e, _ := New(DefaultConfig(), phys)
	e.ObserveRetire(dirtyOutcome(pfn.PAddrOf()), 3)
	e.Flush()
	if phys.Page(pfn).Epoch.Write != 1 {
		t.Errorf("partial flush lost the entry")
	}
	// Idempotent.
	e.Flush()
	if phys.Page(pfn).Epoch.Write != 1 {
		t.Errorf("double flush double-counted")
	}
}

func TestEnableDisable(t *testing.T) {
	e, _ := New(DefaultConfig(), nil)
	e.Disable()
	e.ObserveRetire(dirtyOutcome(0x1000), 3)
	if e.Stats().Logged != 0 {
		t.Errorf("disabled engine logged")
	}
	e.Enable()
	e.ObserveRetire(dirtyOutcome(0x1000), 3)
	if e.Stats().Logged != 1 {
		t.Errorf("re-enabled engine not logging")
	}
}

func TestAddressesPageAligned(t *testing.T) {
	e, _ := New(DefaultConfig(), nil)
	var got []uint64
	e.SetDrainObserver(func(pages []uint64) { got = append(got, pages...) })
	e.ObserveRetire(dirtyOutcome(0x12345), 3)
	e.Flush()
	if len(got) != 1 || got[0] != 0x12000 {
		t.Errorf("logged address %v, want [0x12000]", got)
	}
}

func TestBadLogSize(t *testing.T) {
	if _, err := New(Config{LogSize: -1}, nil); err == nil {
		t.Errorf("negative log size accepted")
	}
}
