// Package provenance is the decision-provenance flight recorder: at
// each epoch cut it captures, per page, the raw evidence vector the
// profiler harvested (A-bit / IBS / device counts), the
// page's fused rank position, the selector's verdict with a typed
// reason (promoted, demoted, held:below-topk, held:quarantine-degraded,
// deferred:retry-backoff, failed:<reason>), and the resulting tier
// transition — answering "why did the policy do that to this page"
// after the fact, which aggregate counters cannot.
//
// The recorder obeys the same contracts as telemetry:
//
//   - Inert by construction: it only reads simulator state handed to
//     it and writes its own columns; attaching a recorder changes no
//     output byte of the run (machine-checked by TestProvenanceInert
//     in internal/sim).
//   - Nil-safe and zero-alloc when detached: every method on a nil
//     *Recorder is a no-op, so the mover and placement loop wire
//     hooks unconditionally.
//   - Bounded and seed-deterministic: per-page state lives in dense
//     pageidx columns (no map[PageKey] anywhere), each page keeps only
//     its last-K decision records in a ring, and the serialized log is
//     a pure function of the run.
package provenance

import (
	"slices"

	"tieredmem/internal/blockcol"
	"tieredmem/internal/core"
	"tieredmem/internal/core/pageidx"
	"tieredmem/internal/mem"
	"tieredmem/internal/telemetry"
)

// Verdict is the typed outcome of one page's epoch: what the selector
// and mover decided, or why nothing happened.
type Verdict uint8

const (
	// VerdictNone marks a record still being collected (FinishEpoch
	// replaces it with a held verdict).
	VerdictNone Verdict = iota
	// VerdictPromoted: the page moved one tier up.
	VerdictPromoted
	// VerdictDemoted: the page moved one tier down.
	VerdictDemoted
	// VerdictHeldResident: selected and already in the top tier.
	VerdictHeldResident
	// VerdictHeldBelowTopK: not selected — the page's rank fell below
	// the capacity cut.
	VerdictHeldBelowTopK
	// VerdictHeldBelowMinRank: selected, but its evidence is below the
	// mover's MinPromoteRank gate — not worth a migration yet.
	VerdictHeldBelowMinRank
	// VerdictHeldQuarantine: not selected in an epoch whose evidence
	// was degraded by profiler quarantine — the rank that cut this
	// page came from fewer mechanisms than requested.
	VerdictHeldQuarantine
	// VerdictDeferred: a transient migration failure queued the page
	// in the mover's deferred-retry queue (or it is still waiting
	// there under backoff).
	VerdictDeferred
	// VerdictSuperseded: a queued retry was dropped because the
	// selection reversed direction before it came due.
	VerdictSuperseded
	// VerdictFailed: the migration failed and was not (or could not
	// be) queued for retry; Fail carries the reason.
	VerdictFailed
	// VerdictHeld: selected with sufficient rank, but the mover never
	// attempted the page this epoch (e.g. pinned non-migratable).
	VerdictHeld
	// VerdictDeferredAdmission: the admission controller's per-epoch
	// bandwidth budget was exhausted; the migration sits in the retry
	// queue for the next epoch.
	VerdictDeferredAdmission
	// VerdictRejectedAdmission: admission denied the migration and the
	// retry queue was full — the migration is dropped outright.
	VerdictRejectedAdmission
)

// FailReason classifies a failed migration. The mover returns it from
// the attempt itself, counts the failure under it, and records it here:
// one value from where a migration fails to where it is reported.
type FailReason uint8

const (
	FailNone FailReason = iota
	// FailCapacity: the target tier had no free frame. Transient.
	FailCapacity
	// FailPinned: the page was non-migratable or transiently busy (the
	// EBUSY case). Transient.
	FailPinned
	// FailSplit: the THP split raced a refcount. Transient.
	FailSplit
	// FailVanished: the mapping disappeared mid-flight, or the
	// allocator failed otherwise. Permanent: never retried.
	FailVanished
	// FailCopyAbort: a transactional copy found the page dirtied
	// mid-flight. Transient.
	FailCopyAbort
)

// failNames names each FailReason by the fault site that produces it.
var failNames = [...]string{
	FailNone:      "none",
	FailCapacity:  "mem.enomem",
	FailPinned:    "mem.pinned",
	FailSplit:     "mem.splitfail",
	FailVanished:  "vanished",
	FailCopyAbort: "mem.copyabort",
}

// verdictNames names each Verdict as the timeline prints it and the
// log serializes it; VerdictFailed's name is a prefix that Reason
// completes with the FailReason.
var verdictNames = [...]string{
	VerdictNone:              "none",
	VerdictPromoted:          "promoted",
	VerdictDemoted:           "demoted",
	VerdictHeldResident:      "held:resident",
	VerdictHeldBelowTopK:     "held:below-topk",
	VerdictHeldBelowMinRank:  "held:below-minrank",
	VerdictHeldQuarantine:    "held:quarantine-degraded",
	VerdictDeferred:          "deferred:retry-backoff",
	VerdictSuperseded:        "superseded",
	VerdictFailed:            "failed",
	VerdictHeld:              "held",
	VerdictDeferredAdmission: "deferred:admission",
	VerdictRejectedAdmission: "rejected:admission",
}

// failedReasons holds VerdictFailed's reason for each FailReason, so
// Reason hands the log writer a constant instead of concatenating a
// string per record.
var failedReasons = func() (r [len(failNames)]string) {
	for f, name := range failNames {
		r[f] = verdictNames[VerdictFailed] + ":" + name
	}
	return r
}()

// String names the fail reason by the fault site that produces it.
func (f FailReason) String() string {
	if int(f) < len(failNames) {
		return failNames[f]
	}
	return failNames[FailNone]
}

// Reason renders the verdict as its typed reason string, the taxonomy
// the timeline prints and the log serializes.
func (v Verdict) Reason(f FailReason) string {
	if v == VerdictFailed {
		if int(f) >= len(failedReasons) {
			f = FailNone
		}
		return failedReasons[f]
	}
	if int(v) >= len(verdictNames) {
		v = VerdictNone
	}
	return verdictNames[v]
}

// verdictFromReason inverts Reason from the same tables for the log
// reader; ok is false for a string Reason cannot produce.
func verdictFromReason(s string) (Verdict, FailReason, bool) {
	for f, name := range failedReasons {
		if s == name {
			return VerdictFailed, FailReason(f), true
		}
	}
	for v, name := range verdictNames {
		if s == name && Verdict(v) != VerdictFailed {
			return Verdict(v), FailNone, true
		}
	}
	return VerdictNone, FailNone, false
}

// Record is one page's decision record for one epoch: the evidence
// the profiler saw, where the fused rank placed the page, and what
// the selector and mover did about it. It is 40 bytes (TestRecordSize):
// every page keeps lastK of them, so they are most of the recorder's
// memory.
type Record struct {
	Epoch int32
	// Pos is the page's position in the epoch's fused ranking
	// (0 = hottest); -1 when the page ranked zero or was only seen
	// through a mover action.
	Pos  int32
	Rank uint64
	// The raw evidence vector at harvest.
	Abit  uint32
	Trace uint32
	Dev   uint32
	// Tier the page occupied at harvest; -1 when the page was only
	// seen through a mover action this epoch.
	Tier int8
	// From/To record the tier transition; -1/-1 when the page did not
	// move.
	From int8
	To   int8
	// Verdict and Fail type the outcome; Reason() renders them.
	Verdict Verdict
	Fail    FailReason
	// Selected reports whether the policy's tier-1 selection included
	// the page.
	Selected bool
	// Degraded reports whether quarantine degraded the ranking method
	// this epoch; Method is the effective method the rank used.
	Degraded bool
	Method   core.Method
}

// residencyHist names the per-tier time-in-tier histograms. Constant
// so counter/histogram names stay static strings; chains are at most
// four tiers deep (mem.ParseTierChain enforces it).
var residencyHist = [4]string{
	"mover/residency_epochs_t0",
	"mover/residency_epochs_t1",
	"mover/residency_epochs_t2",
	"mover/residency_epochs_t3",
}

// Recorder is the flight recorder for one run. The nil Recorder is
// the detached state: every method is a zero-allocation no-op. A
// Recorder belongs to exactly one run (like a telemetry.Tracer) and
// is not safe for concurrent use.
type Recorder struct {
	lastK int // decision records kept per page
	pingK int // promote→demote within this many epochs counts as a ping-pong

	tab *pageidx.Table[core.PageKey]
	// Dense per-page columns, indexed by interned id. Both grow by
	// blocks that never move, so a pointer into them stays valid and
	// Snapshot can hand the rings out without copying them.
	rings blockcol.Column[Record]    // one row of lastK decision records per page
	pages blockcol.Column[pageState] // the rest of each page's state
	// consumed is set by Snapshot, whose log aliases the rings.
	consumed bool

	// Per-epoch scratch (reset at FinishEpoch): the records opened this
	// epoch, and the pages selected this epoch and the last.
	touched []*Record
	selCur  []*pageState
	selPrev []*pageState
	// Per-harvest scratch: each harvest page's record, and the
	// canonical rank order its positions come from.
	cur   []*Record
	order core.RankOrder

	curEpoch  int32
	method    core.Method
	requested core.Method
	degraded  bool
	minRank   uint64

	// Telemetry handles (nil no-ops when no tracer is attached).
	hResidency [4]*telemetry.Histogram
	hChurn     *telemetry.Histogram
	hPingGap   *telemetry.Histogram
	ctrPing    *telemetry.Counter
}

// pageState is one page's recorder state beside its ring.
type pageState struct {
	n           uint32 // records ever written (ring occupancy = min(n, lastK))
	stamp       int32  // epoch of the page's newest record (-1 = none)
	entered     int32  // epoch the page entered curTier
	lastPromote int32  // epoch of the last promotion (-1 = none), for ping-pong
	lastSel     int32  // epoch the page was last selected (-2 = never)
	flips       uint32 // ping-pong count
	curTier     int8   // tier the recorder last saw the page in (-1 unknown)
}

// DefaultLastK is the per-page ring depth: enough epochs to read a
// page's recent story without the log growing with run length.
const DefaultLastK = 8

// DefaultPingPongK is the ping-pong window: a demotion this many
// epochs (or fewer) after a promotion counts as one flip.
const DefaultPingPongK = 4

// New returns a recorder with the default ring depth and ping-pong
// window.
func New() *Recorder { return NewK(DefaultLastK, DefaultPingPongK) }

// NewK returns a recorder keeping the last lastK records per page and
// counting promote→demote flips within pingK epochs.
func NewK(lastK, pingK int) *Recorder {
	if lastK < 1 {
		lastK = 1
	}
	if pingK < 1 {
		pingK = 1
	}
	return &Recorder{
		lastK: lastK,
		pingK: pingK,
		tab:   pageidx.New(1024, core.PageKeyHash),
		rings: blockcol.Rows[Record](lastK),
	}
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// SetTracer attaches the telemetry layer so the recorder can feed the
// distribution metrics (time-in-tier residency, rank churn, ping-pong
// gaps) and the mover/pingpong pathology counter. Safe with a nil
// tracer: the handles become no-ops.
func (r *Recorder) SetTracer(t *telemetry.Tracer) {
	if r == nil {
		return
	}
	for i := range r.hResidency {
		r.hResidency[i] = t.Histogram(residencyHist[i])
	}
	r.hChurn = t.Histogram("sim/rank_churn")
	r.hPingGap = t.Histogram("mover/pingpong_gap_epochs")
	r.ctrPing = t.Counter("mover/pingpong")
}

// note returns the page's state and its record for the current epoch,
// creating the record (claiming the next ring slot) on first touch.
func (r *Recorder) note(key core.PageKey) (*pageState, *Record) {
	if r.consumed {
		panic("provenance: recording after Snapshot")
	}
	id := int(r.tab.Intern(key))
	for r.pages.Len() <= id {
		r.pages.Append(pageState{stamp: -1, curTier: -1, lastPromote: -1, lastSel: -2})
		r.rings.Add()
	}
	st, ring := r.pages.At(id), r.rings.Row(id)
	if st.stamp == r.curEpoch && st.n > 0 {
		return st, &ring[int(st.n-1)%r.lastK]
	}
	st.stamp = r.curEpoch
	rec := &ring[int(st.n)%r.lastK]
	st.n++
	*rec = Record{
		Epoch:    r.curEpoch,
		Pos:      -1,
		Tier:     -1,
		From:     -1,
		To:       -1,
		Method:   r.method,
		Degraded: r.degraded,
	}
	r.touched = append(r.touched, rec)
	return st, rec
}

// BeginEpoch opens an epoch's collection: the epoch index the harvest
// closed, the effective ranking method after quarantine degradation,
// the originally requested method, and the mover's promotion gate.
// Call before ObserveHarvest and the mover's ApplySelection.
func (r *Recorder) BeginEpoch(epoch int, effective, requested core.Method, minPromoteRank uint64) {
	if r == nil {
		return
	}
	r.curEpoch = int32(epoch)
	r.method = effective
	r.requested = requested
	r.degraded = effective != requested
	r.minRank = minPromoteRank
}

// ObserveHarvest records the epoch's evidence vectors and fused rank
// positions, and marks which pages the policy selected. selected may
// be nil (nothing selected).
func (r *Recorder) ObserveHarvest(ep core.EpochStats, selected func(core.PageKey) bool) {
	if r == nil {
		return
	}
	r.cur = r.cur[:0]
	for i := range ep.Pages {
		ps := &ep.Pages[i]
		st, rec := r.note(ps.Key)
		r.cur = append(r.cur, rec)
		rec.Abit, rec.Trace, rec.Dev = ps.Abit, ps.Trace, ps.Dev
		rec.Tier = int8(ps.Tier)
		rec.Rank = ps.Rank(r.method)
		if selected != nil && selected(ps.Key) {
			rec.Selected = true
			r.selCur = append(r.selCur, st)
		}
		if st.curTier != int8(ps.Tier) {
			// First sighting (or an allocation-path tier change the
			// mover never saw): restart the residency clock.
			st.curTier = int8(ps.Tier)
			st.entered = r.curEpoch
		}
	}
	// The fused rank position is the page's index in the canonical
	// ranking — the same order every selector consumes.
	for pos, i := range r.order.Of(ep, r.method) {
		r.cur[i].Pos = int32(pos)
	}
}

// NoteMove records a successful migration to tier to. The from tier
// is the recorder's view of where the page was; the per-tier
// residency histogram observes the stay it just ended.
func (r *Recorder) NoteMove(key core.PageKey, promote bool, to mem.TierID) {
	if r == nil {
		return
	}
	st, rec := r.note(key)
	from := st.curTier
	rec.From, rec.To = from, int8(to)
	if rec.Tier < 0 {
		rec.Tier = from
	}
	if promote {
		rec.Verdict = VerdictPromoted
	} else {
		rec.Verdict = VerdictDemoted
	}
	if from >= 0 {
		t := int(from)
		if t >= len(residencyHist) {
			t = len(residencyHist) - 1
		}
		r.hResidency[t].Observe(uint64(r.curEpoch - st.entered))
	}
	st.curTier = int8(to)
	st.entered = r.curEpoch
	if promote {
		st.lastPromote = r.curEpoch
	} else if st.lastPromote >= 0 && r.curEpoch-st.lastPromote <= int32(r.pingK) {
		st.flips++
		r.ctrPing.Add(1)
		r.hPingGap.Observe(uint64(r.curEpoch - st.lastPromote))
		st.lastPromote = -1 // one flip per promotion
	}
}

// Note records the page's outcome this epoch when the mover did not
// move it: a failure, a deferral into the retry queue (freshly queued
// or still waiting out its backoff), a superseded retry, or an
// admission deferral or rejection. A move recorded this epoch is never
// downgraded. Only a failure reason (f other than FailNone) changes
// Record.Fail, so a deferral keeps the reason that queued the page.
func (r *Recorder) Note(key core.PageKey, v Verdict, f FailReason) {
	if r == nil {
		return
	}
	_, rec := r.note(key)
	if rec.Verdict == VerdictPromoted || rec.Verdict == VerdictDemoted {
		return
	}
	rec.Verdict = v
	if f != FailNone {
		rec.Fail = f
	}
}

// FinishEpoch closes the epoch: pages touched this epoch with no
// outcome get their held verdict, and the rank-churn histogram
// observes how much the selection changed.
func (r *Recorder) FinishEpoch() {
	if r == nil {
		return
	}
	fast := int8(mem.FastTier)
	for _, rec := range r.touched {
		if rec.Verdict != VerdictNone {
			continue
		}
		switch {
		case rec.Selected && rec.Tier == fast:
			rec.Verdict = VerdictHeldResident
		case rec.Selected && rec.Rank < r.minRank:
			rec.Verdict = VerdictHeldBelowMinRank
		case rec.Selected:
			rec.Verdict = VerdictHeld
		case r.degraded:
			rec.Verdict = VerdictHeldQuarantine
		default:
			rec.Verdict = VerdictHeldBelowTopK
		}
	}
	// Rank churn: pages entering the selection plus pages leaving it,
	// relative to the previous epoch.
	churn := 0
	for _, st := range r.selCur {
		if st.lastSel != r.curEpoch-1 {
			churn++
		}
	}
	for _, st := range r.selCur {
		st.lastSel = r.curEpoch
	}
	for _, st := range r.selPrev {
		if st.lastSel != r.curEpoch {
			churn++
		}
	}
	r.hChurn.Observe(uint64(churn))
	r.selPrev, r.selCur = r.selCur, r.selPrev[:0]
	r.touched = r.touched[:0]
}

// Pages returns the number of distinct pages the recorder has seen.
func (r *Recorder) Pages() int {
	if r == nil {
		return 0
	}
	return r.tab.Len()
}

// Snapshot extracts the recorder's state as a serializable log:
// pages in canonical (PID, VPN) order, each with its surviving ring
// of records oldest-first.
//
// Snapshot is the recorder's last call. It rotates each page's ring in
// place so the oldest record comes first, and every PageLog's Records
// alias that storage: the log costs one allocation, for Pages, and no
// record is copied. Recording or snapshotting again panics.
func (r *Recorder) Snapshot(label string) Log {
	lg := Log{Schema: telemetry.SchemaVersion, Label: label}
	if r == nil {
		return lg
	}
	if r.consumed {
		panic("provenance: Snapshot called twice")
	}
	r.consumed = true
	lg.LastK = r.lastK
	lg.PingPongK = r.pingK
	lg.Pages = make([]PageLog, 0, r.pages.Len())
	// Every interned page holds at least the record note made for it.
	for id := 0; id < r.pages.Len(); id++ {
		st := r.pages.At(id)
		cnt := int(st.n)
		pl := PageLog{Key: r.tab.Key(uint32(id)), Flips: st.flips}
		ring := r.rings.Row(id)
		if cnt > r.lastK {
			// The oldest survivor sits at cnt % lastK; rotate it to the
			// front.
			start := cnt % r.lastK
			slices.Reverse(ring[:start])
			slices.Reverse(ring[start:])
			slices.Reverse(ring)
			pl.Dropped = uint64(cnt - r.lastK)
		} else {
			ring = ring[:cnt:cnt]
		}
		pl.Records = ring
		lg.Pages = append(lg.Pages, pl)
	}
	slices.SortFunc(lg.Pages, func(a, b PageLog) int { return core.PageKeyCmp(a.Key, b.Key) })
	return lg
}
