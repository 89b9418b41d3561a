// Package telemetry is the simulator's deterministic observability
// layer: a structured event bus, a counter registry with stable sorted
// iteration, and exporters (JSONL event log, Chrome trace_viewer JSON,
// per-subsystem virtual-time attribution) that make a run's internal
// decisions — HWPC gate toggles, A-bit scans, IBS drains and drops,
// page migrations, epoch cuts — visible without changing a single
// output byte of the run itself.
//
// Two contracts govern everything here:
//
//  1. Telemetry is provably inert. A nil *Tracer is the disabled
//     state; every emit method and counter operation on nil is a
//     no-op that performs zero allocations, and an enabled tracer
//     only records — it never advances a virtual clock, never touches
//     simulator state, and never perturbs iteration order. Same seed
//     ⇒ byte-identical ranks and reports with telemetry on or off
//     (machine-checked by TestTelemetryInert).
//
//  2. Telemetry is deterministic. Events are stamped with *virtual*
//     time only (the tmplint telemetry analyzer rejects wall-clock
//     values flowing into this package), each run owns a private
//     tracer, and merged exports order runs by submission order or
//     sorted label — so the exported event stream is byte-identical
//     at -parallel 1 and -parallel 8 (TestTelemetryParallelIdentity).
//
// Wall-clock host metrics (worker-pool queue delays, real run times)
// deliberately live in a separate Registry that is never merged into
// the virtual-time stream; see runner.RecordStats.
package telemetry

import "tieredmem/internal/blockcol"

// Subsystem identifies which part of the simulator emitted an event
// and owns the virtual time attributed to it.
type Subsystem uint8

const (
	// SubSim is the experiment driver (epoch horizons).
	SubSim Subsystem = iota
	// SubDaemon is the TMP profiling daemon (ticks, process filter).
	SubDaemon
	// SubAbit is the PTE A-bit scanner.
	SubAbit
	// SubIBS is the trace-sampling engine.
	SubIBS
	// SubHWPC is the performance-counter gating monitor.
	SubHWPC
	// SubMover is the page-migration engine.
	SubMover
	// SubMem is the physical-memory allocator.
	SubMem
	// SubRunner is the host-side worker pool (wall-clock registry
	// only; never part of the virtual-time stream).
	SubRunner
	// SubFault is the fault-injection plane (injection counters and
	// quarantine decisions).
	SubFault
	// SubDevProf is the device-side (CXL) hot-page tracker.
	SubDevProf

	numSubsystems
)

// String names the subsystem as used in counter prefixes and exports.
func (s Subsystem) String() string {
	switch s {
	case SubSim:
		return "sim"
	case SubDaemon:
		return "daemon"
	case SubAbit:
		return "abit"
	case SubIBS:
		return "ibs"
	case SubHWPC:
		return "hwpc"
	case SubMover:
		return "mover"
	case SubMem:
		return "mem"
	case SubRunner:
		return "runner"
	case SubFault:
		return "fault"
	case SubDevProf:
		return "devprof"
	default:
		return "sub?"
	}
}

// Kind is the event taxonomy (see OBSERVABILITY.md for field
// semantics per kind).
type Kind uint8

const (
	// KindEpochCut marks an epoch harvest. A = pages harvested.
	KindEpochCut Kind = iota
	// KindDaemonTick is one profiler-daemon pass. Dur = virtual cost.
	KindDaemonTick
	// KindAbitScan is one page-table walk. Dur = cost, A = PTEs
	// visited, B = leaf PTEs found accessed, C = huge leaves.
	KindAbitScan
	// KindIBSDrain is one ring-buffer drain. Dur = cost, A = samples
	// drained, B = samples dropped to ring overrun since last drain.
	KindIBSDrain
	// KindGate is an HWPC gate decision. Name = the PMU event driving
	// the gate, A = this window's count, B = peak window count,
	// C = threshold in basis points; Open records the new state. The
	// paper's rule: gate opens while A ≥ C/10000 × B.
	KindGate
	// KindMigration is one page move. PID/VPN identify the page,
	// Name = "promote" or "demote". The tracer stores migrations in a
	// compact column of their own; Events merges them back in place.
	KindMigration
	// KindShootdown is the epoch batch's TLB shootdown. Dur = cost,
	// A = pages migrated this batch.
	KindShootdown
	// KindFilter is a process-filter re-evaluation. A = PIDs passing,
	// B = PIDs registered.
	KindFilter
	// KindQuarantine marks the profiler permanently disabling one
	// monitoring mechanism whose fault rate crossed the quarantine
	// threshold. Name = the mechanism ("ibs", "abit", "hwpc",
	// "devprof"), A = failures observed, B = attempts observed.
	KindQuarantine
	// KindDevFlush is one device-tracker counter harvest. A =
	// observations folded into page descriptors, B = observations lost
	// to an injected table overflow, C = observations deferred by an
	// injected stale read. Dur is always 0: the tracker costs the host
	// nothing.
	KindDevFlush
)

// String names the kind as serialized in exports.
func (k Kind) String() string {
	switch k {
	case KindEpochCut:
		return "epoch_cut"
	case KindDaemonTick:
		return "daemon_tick"
	case KindAbitScan:
		return "abit_scan"
	case KindIBSDrain:
		return "ibs_drain"
	case KindGate:
		return "gate"
	case KindMigration:
		return "migration"
	case KindShootdown:
		return "shootdown"
	case KindFilter:
		return "filter"
	case KindQuarantine:
		return "quarantine"
	case KindDevFlush:
		return "dev_flush"
	default:
		return "kind?"
	}
}

// Event is one structured telemetry record. Now is always virtual
// nanoseconds; Dur is a virtual-time span for span-shaped events (0
// for instants). Epoch is filled automatically with the placement
// epoch being collected at emission time. The A/B/C payload scalars
// are typed by Kind (see the Kind constants); the typed Emit* methods
// are the only sanctioned way to construct events.
type Event struct {
	Now   int64
	Dur   int64
	Kind  Kind
	Sub   Subsystem
	Epoch int32
	Open  bool   // KindGate: new gate state
	PID   int32  // KindMigration
	VPN   uint64 // KindMigration
	Name  string // KindGate: PMU event; KindMigration: direction
	A     uint64
	B     uint64
	C     uint64
}

// Tracer records one run's events and counters. The zero value is not
// usable; construct with New. A nil *Tracer is the disabled state:
// every method is a zero-allocation no-op, so emit sites are wired
// unconditionally and pay one pointer test when telemetry is off.
//
// A Tracer belongs to exactly one simulation run and is not safe for
// concurrent use — parallel experiment cells each own a private
// tracer, and exports merge them deterministically (see Merge).
type Tracer struct {
	// events holds every event but migrations, in emission order.
	events blockcol.Column[stored]
	// migs holds the migrations in their own compact column; each
	// stored event counts the migrations emitted before it, which is
	// all the merged walk needs to restore emission order. Both
	// columns grow by blocks, so a record is written once and never
	// copied.
	migs  blockcol.Column[migration]
	reg   Registry
	epoch int32
	// epochCuts snapshots counter deltas at each epoch cut.
	epochCuts []EpochCounters
}

// stored is a recorded non-migration event and its place among the
// migrations: migs of them were emitted before it.
type stored struct {
	Event
	migs int
}

// migration is EmitMigration's fixed-width record. Page moves are most
// of a placement run's events (94% in a faulted transactional run), so
// they skip the 80-byte Event: the kind, subsystem and direction string
// are implied, and the epoch is the one in force at the record's place
// in the stream. TestMigrationRecordSize pins it at 24 bytes or less.
type migration struct {
	now     int64
	vpn     uint64
	pid     int32
	promote bool
}

// New returns an enabled tracer with an empty registry.
func New() *Tracer {
	return &Tracer{}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Events returns a walk over the recorded events in emission order;
// a nil tracer's walk is empty:
//
//	for w := tr.Events(); w.Next(); {
//		e := w.Event()
//		...
//	}
func (t *Tracer) Events() EventWalk { return EventWalk{t: t} }

// EventWalk steps through a tracer's events in emission order, merging
// the migration column back between the events it was emitted among.
// It allocates nothing: every step overwrites the one Event the walk
// owns.
type EventWalk struct {
	t     *Tracer
	e     Event
	next  int   // the next stored event
	mig   int   // the next migration record
	epoch int32 // the epoch in force at the walk's position
}

// Next steps to the next event, reporting false once the walk is done.
func (w *EventWalk) Next() bool {
	t := w.t
	if t == nil {
		return false
	}
	if w.mig < t.migs.Len() && (w.next == t.events.Len() || w.mig < t.events.At(w.next).migs) {
		m := t.migs.At(w.mig)
		w.mig++
		dir := "demote"
		if m.promote {
			dir = "promote"
		}
		w.e = Event{Now: m.now, Kind: KindMigration, Sub: SubMover, Epoch: w.epoch,
			PID: m.pid, VPN: m.vpn, Name: dir}
		return true
	}
	if w.next == t.events.Len() {
		return false
	}
	w.e = t.events.At(w.next).Event
	w.next++
	if w.e.Kind == KindEpochCut {
		w.epoch = w.e.Epoch + 1
	}
	return true
}

// Event returns the event Next stepped to. The walk reuses it, so a
// caller that keeps an event past the next step copies it.
func (w *EventWalk) Event() *Event { return &w.e }

// Registry returns the tracer's counter registry (nil for a nil
// tracer; all Registry and Counter methods tolerate nil receivers).
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return &t.reg
}

// Counter is shorthand for Registry().Counter(name).
func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	return t.reg.Counter(name)
}

// EpochCuts returns the per-epoch counter snapshots taken at each
// CutEpoch call, in epoch order.
func (t *Tracer) EpochCuts() []EpochCounters {
	if t == nil {
		return nil
	}
	return t.epochCuts
}

func (t *Tracer) emit(e Event) {
	e.Epoch = t.epoch
	t.events.Append(stored{Event: e, migs: t.migs.Len()})
}

// CutEpoch records an epoch harvest: it emits a KindEpochCut event,
// snapshots every counter's delta since the previous cut, and advances
// the tracer's epoch index. pages is the harvest size.
func (t *Tracer) CutEpoch(now int64, pages int) {
	if t == nil {
		return
	}
	t.emit(Event{Now: now, Kind: KindEpochCut, Sub: SubSim, A: uint64(pages)})
	t.epochCuts = append(t.epochCuts, t.reg.cutEpoch(int(t.epoch), now))
	t.epoch++
}

// EmitDaemonTick records one profiler-daemon pass costing cost virtual
// ns.
func (t *Tracer) EmitDaemonTick(now, cost int64) {
	if t == nil {
		return
	}
	t.emit(Event{Now: now, Dur: cost, Kind: KindDaemonTick, Sub: SubDaemon})
}

// EmitAbitScan records one A-bit page-table walk.
func (t *Tracer) EmitAbitScan(now, cost int64, ptes, pages, huge int) {
	if t == nil {
		return
	}
	t.emit(Event{Now: now, Dur: cost, Kind: KindAbitScan, Sub: SubAbit,
		A: uint64(ptes), B: uint64(pages), C: uint64(huge)})
}

// EmitIBSDrain records one sample-ring drain: drained samples were
// delivered to the accumulator, dropped were lost to ring overrun
// since the previous drain.
func (t *Tracer) EmitIBSDrain(now, cost int64, drained int, dropped uint64) {
	if t == nil {
		return
	}
	t.emit(Event{Now: now, Dur: cost, Kind: KindIBSDrain, Sub: SubIBS,
		A: uint64(drained), B: dropped})
}

// EmitGate records an HWPC gate open/close decision with its rate
// evidence: the window's event count, the peak window count, and the
// activity threshold in basis points (the paper's 20 % rule is 2000).
func (t *Tracer) EmitGate(now int64, name string, open bool, window, peak uint64, thresholdBps uint64) {
	if t == nil {
		return
	}
	t.emit(Event{Now: now, Kind: KindGate, Sub: SubHWPC, Name: name,
		Open: open, A: window, B: peak, C: thresholdBps})
}

// EmitMigration records one page move; promote is fast-tier-bound.
func (t *Tracer) EmitMigration(now int64, pid int, vpn uint64, promote bool) {
	if t == nil {
		return
	}
	t.migs.Append(migration{now: now, vpn: vpn, pid: int32(pid), promote: promote})
}

// EmitShootdown records the batched TLB shootdown covering pages
// migrations.
func (t *Tracer) EmitShootdown(now, cost int64, pages int) {
	if t == nil {
		return
	}
	t.emit(Event{Now: now, Dur: cost, Kind: KindShootdown, Sub: SubMover,
		A: uint64(pages)})
}

// EmitFilter records a process-filter re-evaluation.
func (t *Tracer) EmitFilter(now int64, profiled, registered int) {
	if t == nil {
		return
	}
	t.emit(Event{Now: now, Kind: KindFilter, Sub: SubDaemon,
		A: uint64(profiled), B: uint64(registered)})
}

// EmitQuarantine records the profiler permanently disabling one
// monitoring mechanism, with the fault-rate evidence behind the
// decision.
func (t *Tracer) EmitQuarantine(now int64, mechanism string, failures, attempts uint64) {
	if t == nil {
		return
	}
	t.emit(Event{Now: now, Kind: KindQuarantine, Sub: SubFault,
		Name: mechanism, A: failures, B: attempts})
}

// EmitDevFlush records one device-tracker counter harvest: folded
// observations delivered into page descriptors, plus injected losses.
func (t *Tracer) EmitDevFlush(now int64, folded, lost, late uint64) {
	if t == nil {
		return
	}
	t.emit(Event{Now: now, Kind: KindDevFlush, Sub: SubDevProf,
		A: folded, B: lost, C: late})
}

// Labeled pairs a tracer with the name of the run that produced it,
// for multi-run exports (tmpsim's arms, tmpbench's capture cells).
type Labeled struct {
	Label  string
	Tracer *Tracer
}
