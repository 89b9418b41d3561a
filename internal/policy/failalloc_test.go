package policy

import (
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/cpu"
	"tieredmem/internal/fault"
	"tieredmem/internal/mem"
	"tieredmem/internal/provenance"
	"tieredmem/internal/testalloc"
	"tieredmem/internal/trace"
)

// TestFailedMigrationAllocatesNothing pins a failed migration as an
// ordinary outcome of an epoch, not an exceptional one: once the retry
// queue and the replay's scratch (due, queuedKeys) have reached their
// size, epochs in which every attempt fails inside migrate allocate
// nothing. There is one row per injectable reason, each site at rate 1.
// The fast tier keeps free frames, so every promotion passes
// migrateFresh's capacity pre-check and fails in migrate itself.
func TestFailedMigrationAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		site     fault.Site
		tx, huge bool
		failed   func(*Mover) uint64 // the reason's share of Failed
	}{
		{fault.SitePinned, false, false, func(mv *Mover) uint64 { return mv.FailedPinned }},
		{fault.SiteENOMEM, false, false, func(mv *Mover) uint64 { return mv.FailedCapacity }},
		{fault.SiteSplitFail, false, true, func(mv *Mover) uint64 { return mv.FailedSplit }},
		{fault.SiteCopyAbort, true, false, func(mv *Mover) uint64 { return mv.AbortedDirty }},
	} {
		t.Run(c.site.String(), func(t *testing.T) {
			var m *cpu.Machine
			sel := Selection{}
			if c.huge {
				// One huge page fills most of the fast tier; the next
				// finds no aligned run there and lands in the slow tier,
				// leaving 64 fast frames free.
				m = moverMachine(t, mem.HugePages+64, 4*mem.HugePages)
				m.SetHugeHint(func(int, mem.VPN) bool { return true })
				for _, va := range []uint64{0, mem.HugePages * mem.PageSize} {
					if _, err := m.Execute(trace.Ref{PID: 1, VAddr: va, Kind: trace.Load}); err != nil {
						t.Fatal(err)
					}
				}
				for vpn := mem.VPN(mem.HugePages); vpn < mem.HugePages+4; vpn++ {
					sel[core.PageKey{PID: 1, VPN: vpn}] = struct{}{}
				}
			} else {
				// Pages 0..15 fill the fast tier and 16..23 spill; moving
				// 0..3 down frees four fast frames for the four selected
				// slow pages.
				m = moverMachine(t, 16, 32)
				touchPages(t, m, 1, 24)
				for vpn := mem.VPN(0); vpn < 4; vpn++ {
					if f := NewMover(m).migrate(core.PageKey{PID: 1, VPN: vpn}, mem.SlowTier); f != provenance.FailNone {
						t.Fatalf("making room: vpn %d: %v", vpn, f)
					}
				}
				for vpn := mem.VPN(16); vpn < 20; vpn++ {
					sel[core.PageKey{PID: 1, VPN: vpn}] = struct{}{}
				}
			}
			var spec fault.Spec
			spec.Rates[c.site] = 1
			plane := fault.New(spec, 1)
			m.Phys.SetFaultPlane(plane)
			mv := NewMover(m)
			mv.Transactional = c.tx
			mv.SetFaultPlane(plane)

			// Two full cycles of the retry backoff (fail, retry after
			// 1 and 2 epochs, drop at MaxRetries, start over).
			for range 8 {
				mv.ApplySelection(sel, core.Ranks{})
			}
			total, failed, injected := mv.Failed, c.failed(mv), plane.Injected(c.site)
			const epochs = 64
			allocs := testalloc.Count(func() {
				for range epochs {
					mv.ApplySelection(sel, core.Ranks{})
				}
			})
			// Every failure since the warm-up is this row's, and each
			// one is an injection inside migrate.
			newFailed, newInjected := c.failed(mv)-failed, plane.Injected(c.site)-injected
			if newFailed == 0 || newFailed != newInjected || newFailed != mv.Failed-total {
				t.Fatalf("%d of %d new failures are %s, for %d injections; want all, one per injection",
					newFailed, mv.Failed-total, c.site, newInjected)
			}
			if mv.Promotions != 0 || mv.Demotions != 0 {
				t.Fatalf("%d promotions, %d demotions under a rate-1 %s", mv.Promotions, mv.Demotions, c.site)
			}
			if allocs != 0 {
				t.Errorf("%d epochs of failed migrations allocated %v times, want 0", epochs, allocs)
			}
		})
	}
}
