package telemetry

import (
	"io"
	"strconv"
	"strings"
)

// SchemaVersion stamps every exported JSONL stream (the event log's
// {"type":"run"} line and the provenance log's header) so downstream
// consumers can detect format changes. Bump it whenever a line shape
// changes incompatibly.
const SchemaVersion = 1

// WriteJSONL renders labeled traces as a JSON-Lines event log: one
// self-describing JSON object per line, fields in fixed order, so the
// byte stream is a pure function of the recorded events — the
// parallel-identity regression tests compare these bytes directly.
//
// Line shapes:
//
//	{"type":"run","schema":1,"label":"baseline"}
//	{"type":"event","kind":"abit_scan","sub":"abit","epoch":0,"now":1000,...}
//	{"type":"counters","epoch":0,"now":1000000,"values":{"abit/scans":1,...}}
//	{"type":"totals","values":{...}}
//	{"type":"hist","name":"mover/interarrival_ns","count":3,...}
//
// The run line carries SchemaVersion so downstream consumers can
// detect format changes; histogram lines follow totals, empty
// histograms omitted. Kind-specific payload fields are documented in
// OBSERVABILITY.md. The log reaches w in chunks of about 64 KiB, so a
// long run is never rendered whole in memory.
func WriteJSONL(w io.Writer, traces []Labeled) error {
	var b strings.Builder
	for _, lt := range traces {
		b.Reset()
		b.WriteString(`{"type":"run","schema":`)
		b.WriteString(strconv.Itoa(SchemaVersion))
		b.WriteString(`,"label":`)
		WriteJSONString(&b, lt.Label)
		b.WriteString("}\n")
		cuts := lt.Tracer.EpochCuts()
		cutIdx := 0
		for i := range lt.Tracer.Events() {
			e := &lt.Tracer.Events()[i]
			writeEventLine(&b, e)
			// Counter snapshots ride directly after their epoch-cut
			// event so the log reads in virtual-time order.
			if e.Kind == KindEpochCut && cutIdx < len(cuts) {
				writeCountersLine(&b, "counters", cuts[cutIdx].Epoch, cuts[cutIdx].Now, cuts[cutIdx].Deltas)
				cutIdx++
			}
			if b.Len() >= 1<<16 {
				if _, err := io.WriteString(w, b.String()); err != nil {
					return err
				}
				b.Reset()
			}
		}
		if totals := lt.Tracer.Registry().Totals(); len(totals) > 0 {
			b.WriteString(`{"type":"totals","values":`)
			writeValuesObject(&b, totals)
			b.WriteString("}\n")
		}
		// Distribution lines close the run. Empty histograms are
		// skipped, so a run that registered handles but observed
		// nothing exports exactly the same bytes as one with no
		// histograms at all.
		for _, h := range lt.Tracer.Registry().Histograms() {
			if h.Count() == 0 {
				continue
			}
			b.WriteString(`{"type":"hist","name":`)
			WriteJSONString(&b, h.Name())
			writeUintField(&b, "count", h.Count())
			writeUintField(&b, "p50", h.Percentile(50))
			writeUintField(&b, "p90", h.Percentile(90))
			writeUintField(&b, "p99", h.Percentile(99))
			writeUintField(&b, "max", h.Max())
			b.WriteString("}\n")
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeEventLine renders one event with its kind-typed payload fields.
func writeEventLine(b *strings.Builder, e *Event) {
	b.WriteString(`{"type":"event","kind":"`)
	b.WriteString(e.Kind.String())
	b.WriteString(`","sub":"`)
	b.WriteString(e.Sub.String())
	b.WriteString(`","epoch":`)
	b.WriteString(strconv.FormatInt(int64(e.Epoch), 10))
	b.WriteString(`,"now":`)
	b.WriteString(strconv.FormatInt(e.Now, 10))
	switch e.Kind {
	case KindEpochCut:
		writeUintField(b, "pages", e.A)
	case KindDaemonTick:
		writeIntField(b, "cost_ns", e.Dur)
	case KindAbitScan:
		writeIntField(b, "cost_ns", e.Dur)
		writeUintField(b, "ptes", e.A)
		writeUintField(b, "pages", e.B)
		writeUintField(b, "huge", e.C)
	case KindIBSDrain:
		writeIntField(b, "cost_ns", e.Dur)
		writeUintField(b, "drained", e.A)
		writeUintField(b, "dropped", e.B)
	case KindGate:
		b.WriteString(`,"counter":`)
		WriteJSONString(b, e.Name)
		b.WriteString(`,"open":`)
		b.WriteString(strconv.FormatBool(e.Open))
		writeUintField(b, "window", e.A)
		writeUintField(b, "peak", e.B)
		writeUintField(b, "threshold_bps", e.C)
	case KindMigration:
		writeIntField(b, "pid", int64(e.PID))
		b.WriteString(`,"vpn":"0x`)
		b.WriteString(strconv.FormatUint(e.VPN, 16))
		b.WriteString(`","dir":`)
		WriteJSONString(b, e.Name)
	case KindShootdown:
		writeIntField(b, "cost_ns", e.Dur)
		writeUintField(b, "pages", e.A)
	case KindFilter:
		writeUintField(b, "profiled", e.A)
		writeUintField(b, "registered", e.B)
	case KindQuarantine:
		b.WriteString(`,"mechanism":`)
		WriteJSONString(b, e.Name)
		writeUintField(b, "failures", e.A)
		writeUintField(b, "attempts", e.B)
	case KindDevFlush:
		writeUintField(b, "folded", e.A)
		writeUintField(b, "lost", e.B)
		writeUintField(b, "stale", e.C)
	}
	b.WriteString("}\n")
}

func writeCountersLine(b *strings.Builder, typ string, epoch int, now int64, vals []CounterValue) {
	b.WriteString(`{"type":"`)
	b.WriteString(typ)
	b.WriteString(`","epoch":`)
	b.WriteString(strconv.Itoa(epoch))
	b.WriteString(`,"now":`)
	b.WriteString(strconv.FormatInt(now, 10))
	b.WriteString(`,"values":`)
	writeValuesObject(b, vals)
	b.WriteString("}\n")
}

// writeValuesObject renders sorted counter values as a JSON object.
func writeValuesObject(b *strings.Builder, vals []CounterValue) {
	b.WriteByte('{')
	for i, kv := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		WriteJSONString(b, kv.Name)
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(kv.Value, 10))
	}
	b.WriteByte('}')
}

func writeIntField(b *strings.Builder, name string, v int64) {
	b.WriteString(`,"`)
	b.WriteString(name)
	b.WriteString(`":`)
	b.WriteString(strconv.FormatInt(v, 10))
}

func writeUintField(b *strings.Builder, name string, v uint64) {
	b.WriteString(`,"`)
	b.WriteString(name)
	b.WriteString(`":`)
	b.WriteString(strconv.FormatUint(v, 10))
}

// WriteJSONString quotes s with the minimal escaping labels, counter
// names and provenance reason strings can need (quotes, backslashes,
// control bytes).
func WriteJSONString(b *strings.Builder, s string) {
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			b.WriteString(`\u00`)
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&0xf])
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
}
