package policy

// Admission control for the migration stream (the TierBPF model,
// "Page Migration Admission Control for Tiered Memory via eBPF"):
// migration traffic shares the memory bus with the workload, so an
// epoch gets a bounded simulated-bandwidth budget and migrations past
// it wait instead of thrashing the bus. The budget and every cost are
// pure functions of the tier chain's latency points and the epoch's
// candidate order — no clocks, no global state — so admission
// decisions replay byte-identically at any parallel or shard width.
//
// The mover prices each proposed migration with migrationCostNS and
// charges it against AdmissionBudgetNS via admit. Denied migrations
// are deferred into the deferred-retry queue for the next epoch
// (verdict "deferred:admission", no retry attempt burned) or, when the
// queue is full, rejected outright (verdict "rejected:admission").
// Shadow-hit demotions copy nothing, cost zero, and are always
// admitted — the cheapest migration is the one whose bytes are already
// there.

import (
	"math"

	"tieredmem/internal/core"
	"tieredmem/internal/mem"
	"tieredmem/internal/provenance"
)

// pageLines is how many cache-line transfers one page copy issues.
const pageLines = mem.PageSize / 64

// PageCopyCostNS prices one page copy between two tiers from the
// chain's latency points: every line is read from the source tier and
// written to the target.
func PageCopyCostNS(src, dst mem.TierSpec) int64 {
	return pageLines * (src.ReadLatency + dst.WriteLatency)
}

// AdmissionBudgetNS derives a per-epoch migration budget from an
// epoch length and a bandwidth fraction: frac of the epoch's wall of
// simulated time may go to migration line traffic. frac <= 0 or NaN
// disables admission control (an unlimited budget). A budget past
// math.MaxInt64 (frac +Inf included) saturates there: converting it
// directly is implementation-defined in Go and yields a negative
// budget on amd64, which would silently disable the control asked for.
func AdmissionBudgetNS(epochNS int64, frac float64) int64 {
	if !(frac > 0) {
		return 0
	}
	// float64(math.MaxInt64) rounds up to 2^63, the first value that
	// does not fit.
	if b := frac * float64(epochNS); b < float64(math.MaxInt64) {
		return int64(b)
	}
	return math.MaxInt64
}

// admissionGated reports whether the admission controller is active.
func (mv *Mover) admissionGated() bool { return mv.AdmissionBudgetNS > 0 }

// migrationCostNS prices one proposed migration. A page already in the
// target tier, or one whose demotion can adopt a valid shadow copy, is
// free; a vanished mapping is also free (the migrate attempt will
// classify the vanish without copying anything).
func (mv *Mover) migrationCostNS(key core.PageKey, target mem.TierID) int64 {
	phys := mv.machine.Phys
	table, ok := mv.machine.Tables()[key.PID]
	if !ok {
		return 0
	}
	pfn, ok := table.Frame(key.VPN)
	if !ok {
		return 0
	}
	tier := phys.TierOf(pfn)
	if tier == target {
		return 0
	}
	if mv.Transactional && target > tier {
		if _, hit := phys.ShadowFor(pfn, target); hit {
			return 0
		}
	}
	return PageCopyCostNS(phys.TierSpecOf(tier), phys.TierSpecOf(target))
}

// admit charges one migration against the epoch's budget and reports
// whether it fits. Each direction owns half the budget: demotions run
// first in the epoch (and their deferrals replay first from the retry
// queue), so a shared pool would let a demotion backlog starve
// promotions — the demand-driven direction — indefinitely. Only called
// when admissionGated().
func (mv *Mover) admit(promote bool, cost int64) bool {
	half := mv.AdmissionBudgetNS / 2
	spent := &mv.admSpentDemote
	if promote {
		spent = &mv.admSpentPromote
	}
	if *spent+cost > half {
		return false
	}
	*spent += cost
	if promote {
		mv.AdmittedPromotions++
	} else {
		mv.AdmittedDemotions++
	}
	return true
}

// deferAdmission parks an admission-denied migration in the retry
// queue for the next epoch. Unlike a failure deferral it burns no
// retry attempt and backs off exactly one epoch: the page did nothing
// wrong, the bus was busy. A full queue rejects the migration
// outright — a contended epoch must not hoard an unbounded backlog.
func (mv *Mover) deferAdmission(key core.PageKey, promote bool, attempts int, firstFail uint64) {
	if len(mv.retries) >= mv.RetryQueueCap {
		if promote {
			mv.RejectedPromotions++
		} else {
			mv.RejectedDemotions++
		}
		mv.prov.Note(key, provenance.VerdictRejectedAdmission, provenance.FailNone)
		return
	}
	mv.DeferredAdmission++
	mv.retries = append(mv.retries, retryEntry{
		key:       key,
		promote:   promote,
		attempts:  attempts,
		due:       mv.epoch + 1,
		firstFail: firstFail,
	})
	mv.prov.Note(key, provenance.VerdictDeferredAdmission, provenance.FailNone)
}
