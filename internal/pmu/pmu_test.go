package pmu

import "testing"

// TestTrackAndCount checks that each event counts what is added to it
// and nothing added to another.
func TestTrackAndCount(t *testing.T) {
	var p PMU
	p.Add(EvLLCMiss, 5)
	p.Add(EvLLCMiss, 3)
	p.Add(EvSTLBMiss, 2)
	if p.Raw(EvLLCMiss) != 8 {
		t.Errorf("Raw(llc-miss) = %d, want 8", p.Raw(EvLLCMiss))
	}
	if p.Raw(EvSTLBMiss) != 2 {
		t.Errorf("Raw(stlb-miss) = %d, want 2", p.Raw(EvSTLBMiss))
	}
}

func TestEventString(t *testing.T) {
	if EvLLCMiss.String() != "llc-miss" || EvSTLBMiss.String() != "stlb-miss" {
		t.Errorf("event names wrong: %v %v", EvLLCMiss, EvSTLBMiss)
	}
	if Event(99).String() != "event(99)" {
		t.Errorf("unknown event name: %v", Event(99))
	}
}
