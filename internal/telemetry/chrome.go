package telemetry

import (
	"io"
	"strconv"
)

// Chrome trace_viewer export: the run renders as a virtual-time
// flamegraph in chrome://tracing or Perfetto (Open trace file). Each
// labeled run becomes one "process"; each subsystem becomes one named
// "thread" track carrying its spans and instants, and per-epoch
// counter deltas become counter series.
//
// Timestamp convention: the trace_viewer "ts"/"dur" unit is
// microseconds, but all simulator time is virtual nanoseconds — the
// export writes virtual ns directly into ts, so one displayed
// microsecond reads as one virtual nanosecond. Relative layout (the
// only thing a flamegraph shows) is exact, and timestamps stay
// integers, keeping the export byte-deterministic.

// chrome thread ids per subsystem, with sort indices that pin the
// track order in the viewer.
func chromeTID(s Subsystem) int { return int(s) }

// noTID marks a process-level trace event, which carries no "tid".
const noTID = -1

// WriteChromeTrace renders labeled traces as Chrome trace_viewer JSON.
// The document reaches w in chunks of about ChunkSize.
func WriteChromeTrace(w io.Writer, traces []Labeled) error {
	o := chromeOut{b: append([]byte(nil), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"...)}
	for ti, lt := range traces {
		pid := ti + 1
		o.meta(pid, noTID, "process_name", lt.Label)
		// Thread-name metadata only for subsystems that appear.
		var seen [numSubsystems]bool
		for ev := lt.Tracer.Events(); ev.Next(); {
			seen[ev.Event().Sub] = true
		}
		for s := Subsystem(0); s < numSubsystems; s++ {
			if seen[s] {
				o.meta(pid, chromeTID(s), "thread_name", s.String())
				o.head("M", pid, chromeTID(s), "thread_sort_index")
				o.end(argKV{"sort_index", uint64(s)})
			}
		}
		cuts := lt.Tracer.EpochCuts()
		cutIdx := 0
		var lastCut int64
		for ev := lt.Tracer.Events(); ev.Next(); {
			e := ev.Event()
			switch e.Kind {
			case KindEpochCut:
				o.name = strconv.AppendInt(append(o.name[:0], "epoch "...), int64(e.Epoch), 10)
				o.span(pid, chromeTID(SubSim), string(o.name),
					"epoch", lastCut, e.Now-lastCut, argKV{"pages", e.A})
				lastCut = e.Now
				if cutIdx < len(cuts) {
					for _, kv := range cuts[cutIdx].Deltas {
						o.head("C", pid, 0, kv.Name)
						o.at("", e.Now)
						o.end(argKV{"value", kv.Value})
					}
					cutIdx++
				}
			case KindDaemonTick:
				o.span(pid, chromeTID(SubDaemon), "tick", "daemon", e.Now, e.Dur)
			case KindAbitScan:
				o.span(pid, chromeTID(SubAbit), "scan", "abit", e.Now, e.Dur,
					argKV{"ptes", e.A}, argKV{"pages", e.B}, argKV{"huge", e.C})
			case KindIBSDrain:
				o.span(pid, chromeTID(SubIBS), "drain", "ibs", e.Now, e.Dur,
					argKV{"drained", e.A}, argKV{"dropped", e.B})
			case KindGate:
				state := "gate close "
				if e.Open {
					state = "gate open "
				}
				o.name = append(append(o.name[:0], state...), e.Name...)
				o.instant(pid, chromeTID(SubHWPC), string(o.name), "hwpc", e.Now,
					argKV{"window", e.A}, argKV{"peak", e.B}, argKV{"threshold_bps", e.C})
			case KindMigration:
				o.instant(pid, chromeTID(SubMover), e.Name, "mover", e.Now,
					argKV{"pid", uint64(e.PID)}, argKV{"vpn", e.VPN})
			case KindShootdown:
				o.span(pid, chromeTID(SubMover), "shootdown", "mover", e.Now, e.Dur,
					argKV{"pages", e.A})
			case KindFilter:
				o.instant(pid, chromeTID(SubDaemon), "refilter", "daemon", e.Now,
					argKV{"profiled", e.A}, argKV{"registered", e.B})
			case KindQuarantine:
				o.name = append(append(o.name[:0], "quarantine "...), e.Name...)
				o.instant(pid, chromeTID(SubFault), string(o.name), "fault", e.Now,
					argKV{"failures", e.A}, argKV{"attempts", e.B})
			case KindDevFlush:
				o.instant(pid, chromeTID(SubDevProf), "dev flush", "devprof", e.Now,
					argKV{"folded", e.A}, argKV{"lost", e.B}, argKV{"stale", e.C})
			}
			if len(o.b) >= ChunkSize {
				if _, err := w.Write(o.b); err != nil {
					return err
				}
				o.b = o.b[:0]
			}
		}
	}
	o.b = append(o.b, "\n]}\n"...)
	_, err := w.Write(o.b)
	return err
}

// chromeOut renders trace events into one reused buffer, separating
// the elements of the traceEvents array.
type chromeOut struct {
	b     []byte
	begun bool   // an event precedes the next one
	name  []byte // scratch for event names built from parts
}

// argKV is one args entry; values are integers so formatting is
// byte-deterministic.
type argKV struct {
	k string
	v uint64
}

// head opens the next trace event: its phase, process, thread (unless
// tid is noTID) and name.
func (o *chromeOut) head(ph string, pid, tid int, name string) {
	if o.begun {
		o.b = append(o.b, ",\n"...)
	}
	o.begun = true
	o.b = append(o.b, `{"ph":"`...)
	o.b = append(o.b, ph...)
	o.b = append(o.b, '"')
	o.b = AppendIntField(o.b, "pid", int64(pid))
	if tid != noTID {
		o.b = AppendIntField(o.b, "tid", int64(tid))
	}
	o.b = AppendStringField(o.b, "name", name)
}

// at appends the event's category, when it has one, and timestamp.
func (o *chromeOut) at(cat string, ts int64) {
	if cat != "" {
		o.b = AppendStringField(o.b, "cat", cat)
	}
	o.b = AppendIntField(o.b, "ts", ts)
}

// end closes the event with its integer args.
func (o *chromeOut) end(args ...argKV) {
	if len(args) > 0 {
		o.b = append(o.b, `,"args":{`...)
		for i, a := range args {
			if i > 0 {
				o.b = append(o.b, ',')
			}
			o.b = appendJSONString(o.b, a.k)
			o.b = append(o.b, ':')
			o.b = strconv.AppendUint(o.b, a.v, 10)
		}
		o.b = append(o.b, '}')
	}
	o.b = append(o.b, '}')
}

// span renders a complete ("X") event lasting dur.
func (o *chromeOut) span(pid, tid int, name, cat string, ts, dur int64, args ...argKV) {
	o.head("X", pid, tid, name)
	o.at(cat, ts)
	o.b = AppendIntField(o.b, "dur", dur)
	o.end(args...)
}

// instant renders a thread-scoped instant ("i") event.
func (o *chromeOut) instant(pid, tid int, name, cat string, ts int64, args ...argKV) {
	o.head("i", pid, tid, name)
	o.at(cat, ts)
	o.b = append(o.b, `,"s":"t"`...)
	o.end(args...)
}

// meta renders a metadata ("M") event naming a process or thread.
func (o *chromeOut) meta(pid, tid int, name, value string) {
	o.head("M", pid, tid, name)
	o.b = append(o.b, `,"args":{"name":`...)
	o.b = appendJSONString(o.b, value)
	o.b = append(o.b, "}}"...)
}
