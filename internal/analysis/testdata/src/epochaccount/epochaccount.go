// Package fixture exercises the epochaccount analyzer. The struct
// names shadow the real mem.Evidence, core.PageStat and
// mem.PageDescriptor; this package's import path is not a sanctioned
// accumulation path, so every counter write below is a finding.
package fixture

// Evidence mirrors mem.Evidence: every field is protected.
type Evidence struct {
	Abit  uint32
	Trace uint32
	Dev   uint32
	True  uint32
}

// PageStat mirrors core.PageStat, which embeds Evidence.
type PageStat struct {
	Key int
	Evidence
	Other int
}

// PageDescriptor mirrors mem.PageDescriptor: Epoch is its one
// protected field.
type PageDescriptor struct {
	Epoch Evidence
	PID   int32
}

func directWrites(ps *PageStat) {
	ps.Abit = 3              // want `write to Evidence.Abit outside sanctioned`
	ps.Trace++               // want `write to Evidence.Trace outside sanctioned`
	ps.Abit += 1             // want `write to Evidence.Abit outside sanctioned`
	ps.Dev--                 // want `write to Evidence.Dev outside sanctioned`
	ps.True = ps.True + 1    // want `write to Evidence.True outside sanctioned`
	ps.Evidence.Abit = 1     // want `write to Evidence.Abit outside sanctioned`
	ps.Evidence = Evidence{} // want `write to PageStat.Evidence outside sanctioned`
	ps.Key, ps.Other = 1, 7  // ok: not protected counters
}

func descriptorWrites(pd *PageDescriptor) {
	pd.Epoch.Abit++       // want `write to Evidence.Abit outside sanctioned`
	pd.Epoch.Dev = 0      // want `write to Evidence.Dev outside sanctioned`
	pd.Epoch = Evidence{} // want `write to PageDescriptor.Epoch outside sanctioned`
	pd.PID = 1            // ok: not a protected counter
}

func escapeHatch(pd *PageDescriptor) (*uint32, *Evidence) {
	return &pd.Epoch.Trace, &pd.Epoch // want `write to Evidence.Trace outside sanctioned` `write to PageDescriptor.Epoch outside sanctioned`
}

func localEvidence() Evidence {
	var e Evidence
	e.True = 4 // want `write to Evidence.True outside sanctioned`
	return e
}

func readsOK(ps *PageStat, pd *PageDescriptor) uint64 {
	return uint64(ps.Abit) + uint64(ps.Trace) + uint64(pd.Epoch.Abit) + uint64(pd.PID) // ok: reads never corrupt ranks
}
