package telemetry

import (
	"io"
	"strconv"
	"strings"
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

// WriteChromeTrace renders labeled traces as Chrome trace_viewer JSON.
func WriteChromeTrace(w io.Writer, traces []Labeled) error {
	var b strings.Builder
	b.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(line)
	}
	for ti, lt := range traces {
		pid := ti + 1
		emit(metaEvent(pid, "process_name", lt.Label))
		// Thread-name metadata only for subsystems that appear.
		var seen [numSubsystems]bool
		for _, e := range lt.Tracer.Events() {
			seen[e.Sub] = true
		}
		for s := Subsystem(0); s < numSubsystems; s++ {
			if seen[s] {
				emit(metaEvent2(pid, chromeTID(s), "thread_name", s.String()))
				emit(sortEvent(pid, chromeTID(s), int(s)))
			}
		}
		cuts := lt.Tracer.EpochCuts()
		cutIdx := 0
		var lastCut int64
		for i := range lt.Tracer.Events() {
			e := &lt.Tracer.Events()[i]
			switch e.Kind {
			case KindEpochCut:
				emit(spanEvent(pid, chromeTID(SubSim), "epoch "+strconv.Itoa(int(e.Epoch)),
					"epoch", lastCut, e.Now-lastCut,
					[]argKV{{"pages", e.A}}))
				lastCut = e.Now
				if cutIdx < len(cuts) {
					for _, kv := range cuts[cutIdx].Deltas {
						emit(counterEvent(pid, e.Now, kv.Name, kv.Value))
					}
					cutIdx++
				}
			case KindDaemonTick:
				emit(spanEvent(pid, chromeTID(SubDaemon), "tick", "daemon", e.Now, e.Dur, nil))
			case KindAbitScan:
				emit(spanEvent(pid, chromeTID(SubAbit), "scan", "abit", e.Now, e.Dur,
					[]argKV{{"ptes", e.A}, {"pages", e.B}, {"huge", e.C}}))
			case KindIBSDrain:
				emit(spanEvent(pid, chromeTID(SubIBS), "drain", "ibs", e.Now, e.Dur,
					[]argKV{{"drained", e.A}, {"dropped", e.B}}))
			case KindGate:
				name := "gate close " + e.Name
				if e.Open {
					name = "gate open " + e.Name
				}
				emit(instantEvent(pid, chromeTID(SubHWPC), name, "hwpc", e.Now,
					[]argKV{{"window", e.A}, {"peak", e.B}, {"threshold_bps", e.C}}))
			case KindMigration:
				emit(instantEvent(pid, chromeTID(SubMover), e.Name, "mover", e.Now,
					[]argKV{{"pid", uint64(e.PID)}, {"vpn", e.VPN}}))
			case KindShootdown:
				emit(spanEvent(pid, chromeTID(SubMover), "shootdown", "mover", e.Now, e.Dur,
					[]argKV{{"pages", e.A}}))
			case KindFilter:
				emit(instantEvent(pid, chromeTID(SubDaemon), "refilter", "daemon", e.Now,
					[]argKV{{"profiled", e.A}, {"registered", e.B}}))
			case KindQuarantine:
				emit(instantEvent(pid, chromeTID(SubFault), "quarantine "+e.Name, "fault", e.Now,
					[]argKV{{"failures", e.A}, {"attempts", e.B}}))
			case KindDevFlush:
				emit(instantEvent(pid, chromeTID(SubDevProf), "dev flush", "devprof", e.Now,
					[]argKV{{"folded", e.A}, {"lost", e.B}, {"stale", e.C}}))
			}
		}
	}
	b.WriteString("\n]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// argKV is one args entry; values are integers so formatting is
// byte-deterministic.
type argKV struct {
	k string
	v uint64
}

func writeArgs(b *strings.Builder, args []argKV) {
	b.WriteString(`,"args":{`)
	for i, a := range args {
		if i > 0 {
			b.WriteByte(',')
		}
		WriteJSONString(b, a.k)
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(a.v, 10))
	}
	b.WriteByte('}')
}

func eventPrefix(b *strings.Builder, ph string, pid, tid int, name, cat string, ts int64) {
	b.WriteString(`{"ph":"`)
	b.WriteString(ph)
	b.WriteString(`","pid":`)
	b.WriteString(strconv.Itoa(pid))
	b.WriteString(`,"tid":`)
	b.WriteString(strconv.Itoa(tid))
	b.WriteString(`,"name":`)
	WriteJSONString(b, name)
	if cat != "" {
		b.WriteString(`,"cat":`)
		WriteJSONString(b, cat)
	}
	b.WriteString(`,"ts":`)
	b.WriteString(strconv.FormatInt(ts, 10))
}

func spanEvent(pid, tid int, name, cat string, ts, dur int64, args []argKV) string {
	var b strings.Builder
	eventPrefix(&b, "X", pid, tid, name, cat, ts)
	b.WriteString(`,"dur":`)
	b.WriteString(strconv.FormatInt(dur, 10))
	if len(args) > 0 {
		writeArgs(&b, args)
	}
	b.WriteByte('}')
	return b.String()
}

func instantEvent(pid, tid int, name, cat string, ts int64, args []argKV) string {
	var b strings.Builder
	eventPrefix(&b, "i", pid, tid, name, cat, ts)
	b.WriteString(`,"s":"t"`)
	if len(args) > 0 {
		writeArgs(&b, args)
	}
	b.WriteByte('}')
	return b.String()
}

func counterEvent(pid int, ts int64, name string, value uint64) string {
	var b strings.Builder
	eventPrefix(&b, "C", pid, 0, name, "", ts)
	writeArgs(&b, []argKV{{"value", value}})
	b.WriteByte('}')
	return b.String()
}

func metaEvent(pid int, name, value string) string {
	var b strings.Builder
	b.WriteString(`{"ph":"M","pid":`)
	b.WriteString(strconv.Itoa(pid))
	b.WriteString(`,"name":"`)
	b.WriteString(name)
	b.WriteString(`","args":{"name":`)
	WriteJSONString(&b, value)
	b.WriteString("}}")
	return b.String()
}

func metaEvent2(pid, tid int, name, value string) string {
	var b strings.Builder
	b.WriteString(`{"ph":"M","pid":`)
	b.WriteString(strconv.Itoa(pid))
	b.WriteString(`,"tid":`)
	b.WriteString(strconv.Itoa(tid))
	b.WriteString(`,"name":"`)
	b.WriteString(name)
	b.WriteString(`","args":{"name":`)
	WriteJSONString(&b, value)
	b.WriteString("}}")
	return b.String()
}

func sortEvent(pid, tid, index int) string {
	var b strings.Builder
	b.WriteString(`{"ph":"M","pid":`)
	b.WriteString(strconv.Itoa(pid))
	b.WriteString(`,"tid":`)
	b.WriteString(strconv.Itoa(tid))
	b.WriteString(`,"name":"thread_sort_index","args":{"sort_index":`)
	b.WriteString(strconv.Itoa(index))
	b.WriteString("}}")
	return b.String()
}
