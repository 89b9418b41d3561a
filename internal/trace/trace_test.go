package trace

import (
	"testing"
	"testing/quick"

	"tieredmem/internal/order"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Load:         "load",
		Store:        "store",
		PrefetchFill: "prefetch",
		Kind(9):      "kind(9)",
	}
	for _, k := range order.SortedKeys(cases) {
		if got := k.String(); got != cases[k] {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, cases[k])
		}
	}
}

func TestDataSourceString(t *testing.T) {
	cases := map[DataSource]string{
		SrcL1:          "l1",
		SrcL2:          "l2",
		SrcLLC:         "llc",
		SrcTier1:       "tier1",
		SrcTier2:       "tier2",
		DataSource(99): "src(99)",
	}
	for _, s := range order.SortedKeys(cases) {
		if got := s.String(); got != cases[s] {
			t.Errorf("DataSource(%d).String() = %q, want %q", s, got, cases[s])
		}
	}
}

func TestDataSourceIsMemory(t *testing.T) {
	for _, s := range []DataSource{SrcL1, SrcL2, SrcLLC} {
		if s.IsMemory() {
			t.Errorf("%v.IsMemory() = true, want false", s)
		}
	}
	for _, s := range []DataSource{SrcTier1, SrcTier2} {
		if !s.IsMemory() {
			t.Errorf("%v.IsMemory() = false, want true", s)
		}
	}
}

func TestSampleFromOutcome(t *testing.T) {
	o := &Outcome{
		Ref:     Ref{PID: 7, IP: 0x400100, VAddr: 0xdeadbeef, Kind: Store},
		PAddr:   0x1234000,
		Now:     42,
		CPU:     3,
		Source:  SrcTier2,
		TLBMiss: true,
		Latency: 350,
	}
	s := SampleFromOutcome(o)
	if s.PID != 7 || s.IP != 0x400100 || s.VAddr != 0xdeadbeef || s.Kind != Store {
		t.Errorf("ref fields not copied: %+v", s)
	}
	if s.PAddr != 0x1234000 || s.Now != 42 || s.CPU != 3 || s.Source != SrcTier2 || !s.TLBMiss || s.Latency != 350 {
		t.Errorf("outcome fields not copied: %+v", s)
	}
}

func TestRingPushDrain(t *testing.T) {
	r := NewRing(8, 0, nil)
	for i := 0; i < 5; i++ {
		r.Push(Sample{Now: int64(i)})
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	out := r.Drain(nil)
	if len(out) != 5 {
		t.Fatalf("drained %d, want 5", len(out))
	}
	for i, s := range out {
		if s.Now != int64(i) {
			t.Errorf("out[%d].Now = %d, want %d (arrival order)", i, s.Now, i)
		}
	}
	if r.Len() != 0 {
		t.Errorf("Len after drain = %d, want 0", r.Len())
	}
}

func TestRingOverrunDropsOldest(t *testing.T) {
	r := NewRing(4, 0, nil)
	for i := 0; i < 6; i++ {
		r.Push(Sample{Now: int64(i)})
	}
	if r.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", r.Dropped())
	}
	out := r.Drain(nil)
	if len(out) != 4 {
		t.Fatalf("drained %d, want 4", len(out))
	}
	if out[0].Now != 2 || out[3].Now != 5 {
		t.Errorf("kept wrong window: first=%d last=%d, want 2 and 5", out[0].Now, out[3].Now)
	}
}

func TestRingThresholdInterrupt(t *testing.T) {
	fired := 0
	var r *Ring
	r = NewRing(16, 4, func(got *Ring) {
		fired++
		if got != r {
			t.Errorf("IRQ delivered wrong ring")
		}
		got.Drain(nil)
	})
	for i := 0; i < 12; i++ {
		r.Push(Sample{})
	}
	if fired != 3 {
		t.Errorf("IRQ fired %d times, want 3 (every 4 pushes)", fired)
	}
	if r.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0 with a draining IRQ", r.Dropped())
	}
}

func TestRingZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("NewRing(0, ...) did not panic")
		}
	}()
	NewRing(0, 0, nil)
}

func TestRingWraparoundOrder(t *testing.T) {
	// Property: after arbitrary push/drain interleavings, Drain
	// returns samples in arrival order and never invents samples.
	f := func(ops []uint8) bool {
		r := NewRing(8, 0, nil)
		next := int64(0)
		expect := []int64{}
		for _, op := range ops {
			if op%3 == 0 && len(expect) > 0 {
				out := r.Drain(nil)
				for i, s := range out {
					if s.Now != expect[i] {
						return false
					}
				}
				expect = expect[:0]
				continue
			}
			r.Push(Sample{Now: next})
			expect = append(expect, next)
			next++
			if len(expect) > 8 {
				expect = expect[len(expect)-8:]
			}
		}
		out := r.Drain(nil)
		if len(out) != len(expect) {
			return false
		}
		for i, s := range out {
			if s.Now != expect[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
