package telemetry

import (
	"io"
	"strconv"
)

// SchemaVersion stamps every exported JSONL stream (the event log's
// {"type":"run"} line and the provenance log's header) so downstream
// consumers can detect format changes. Bump it whenever a line shape
// changes incompatibly.
const SchemaVersion = 1

// ChunkSize is how much rendered output the exporters (WriteJSONL,
// WriteChromeTrace, provenance.WriteLog) hold before handing it to
// their writer: each renders into one reused byte buffer, so a long
// run is never rendered whole in memory and the buffer grows once.
const ChunkSize = 1 << 16

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
// OBSERVABILITY.md. The log reaches w in chunks of about ChunkSize.
func WriteJSONL(w io.Writer, traces []Labeled) error {
	var b []byte
	for _, lt := range traces {
		b = append(b, `{"type":"run"`...)
		b = AppendIntField(b, "schema", SchemaVersion)
		b = AppendStringField(b, "label", lt.Label)
		b = append(b, "}\n"...)
		cuts := lt.Tracer.EpochCuts()
		cutIdx := 0
		for ev := lt.Tracer.Events(); ev.Next(); {
			e := ev.Event()
			b = appendEventLine(b, e)
			// Counter snapshots ride directly after their epoch-cut
			// event so the log reads in virtual-time order.
			if e.Kind == KindEpochCut && cutIdx < len(cuts) {
				c := &cuts[cutIdx]
				b = append(b, `{"type":"counters"`...)
				b = AppendIntField(b, "epoch", int64(c.Epoch))
				b = AppendIntField(b, "now", c.Now)
				b = appendValuesField(b, c.Deltas)
				b = append(b, "}\n"...)
				cutIdx++
			}
			if len(b) >= ChunkSize {
				if _, err := w.Write(b); err != nil {
					return err
				}
				b = b[:0]
			}
		}
		if totals := lt.Tracer.Registry().Totals(); len(totals) > 0 {
			b = append(b, `{"type":"totals"`...)
			b = appendValuesField(b, totals)
			b = append(b, "}\n"...)
		}
		// Distribution lines close the run. Empty histograms are
		// skipped, so a run that registered handles but observed
		// nothing exports exactly the same bytes as one with no
		// histograms at all.
		for _, h := range lt.Tracer.Registry().Histograms() {
			if h.Count() == 0 {
				continue
			}
			b = append(b, `{"type":"hist"`...)
			b = AppendStringField(b, "name", h.Name())
			b = AppendUintField(b, "count", h.Count())
			b = AppendUintField(b, "p50", h.Percentile(50))
			b = AppendUintField(b, "p90", h.Percentile(90))
			b = AppendUintField(b, "p99", h.Percentile(99))
			b = AppendUintField(b, "max", h.Max())
			b = append(b, "}\n"...)
		}
	}
	if len(b) > 0 {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// appendEventLine renders one event with its kind-typed payload fields.
func appendEventLine(b []byte, e *Event) []byte {
	b = append(b, `{"type":"event"`...)
	b = AppendStringField(b, "kind", e.Kind.String())
	b = AppendStringField(b, "sub", e.Sub.String())
	b = AppendIntField(b, "epoch", int64(e.Epoch))
	b = AppendIntField(b, "now", e.Now)
	switch e.Kind {
	case KindEpochCut:
		b = AppendUintField(b, "pages", e.A)
	case KindDaemonTick:
		b = AppendIntField(b, "cost_ns", e.Dur)
	case KindAbitScan:
		b = AppendIntField(b, "cost_ns", e.Dur)
		b = AppendUintField(b, "ptes", e.A)
		b = AppendUintField(b, "pages", e.B)
		b = AppendUintField(b, "huge", e.C)
	case KindIBSDrain:
		b = AppendIntField(b, "cost_ns", e.Dur)
		b = AppendUintField(b, "drained", e.A)
		b = AppendUintField(b, "dropped", e.B)
	case KindGate:
		b = AppendStringField(b, "counter", e.Name)
		b = AppendBoolField(b, "open", e.Open)
		b = AppendUintField(b, "window", e.A)
		b = AppendUintField(b, "peak", e.B)
		b = AppendUintField(b, "threshold_bps", e.C)
	case KindMigration:
		b = AppendIntField(b, "pid", int64(e.PID))
		b = AppendHexField(b, "vpn", e.VPN)
		b = AppendStringField(b, "dir", e.Name)
	case KindShootdown:
		b = AppendIntField(b, "cost_ns", e.Dur)
		b = AppendUintField(b, "pages", e.A)
	case KindFilter:
		b = AppendUintField(b, "profiled", e.A)
		b = AppendUintField(b, "registered", e.B)
	case KindQuarantine:
		b = AppendStringField(b, "mechanism", e.Name)
		b = AppendUintField(b, "failures", e.A)
		b = AppendUintField(b, "attempts", e.B)
	case KindDevFlush:
		b = AppendUintField(b, "folded", e.A)
		b = AppendUintField(b, "lost", e.B)
		b = AppendUintField(b, "stale", e.C)
	}
	return append(b, "}\n"...)
}

// appendValuesField renders sorted counter values as a "values" JSON
// object field.
func appendValuesField(b []byte, vals []CounterValue) []byte {
	b = append(b, `,"values":{`...)
	for i, kv := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, kv.Name)
		b = append(b, ':')
		b = strconv.AppendUint(b, kv.Value, 10)
	}
	return append(b, '}')
}

// The field writers below append `,"name":value` to an open JSON
// object. Names are constants of the line shapes and are not escaped;
// every exporter (the event log, the Chrome trace, the provenance log)
// renders its fields through them.

// appendName appends the `,"name":` that opens a field.
func appendName(b []byte, name string) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	return append(b, '"', ':')
}

// AppendIntField appends a signed integer field.
func AppendIntField(b []byte, name string, v int64) []byte {
	return strconv.AppendInt(appendName(b, name), v, 10)
}

// AppendUintField appends an unsigned integer field.
func AppendUintField(b []byte, name string, v uint64) []byte {
	return strconv.AppendUint(appendName(b, name), v, 10)
}

// AppendHexField appends v as a "0x"-prefixed hex string field, the
// form page numbers take in every log.
func AppendHexField(b []byte, name string, v uint64) []byte {
	b = append(appendName(b, name), `"0x`...)
	b = strconv.AppendUint(b, v, 16)
	return append(b, '"')
}

// AppendBoolField appends a boolean field.
func AppendBoolField(b []byte, name string, v bool) []byte {
	return strconv.AppendBool(appendName(b, name), v)
}

// AppendStringField appends a JSON string field.
func AppendStringField(b []byte, name, s string) []byte {
	return appendJSONString(appendName(b, name), s)
}

// appendJSONString appends s quoted with the minimal escaping labels,
// counter names and provenance reason strings can need (quotes,
// backslashes, control bytes).
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	clean := 0 // s[clean:i] needs no escaping
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		b = append(b, s[clean:i]...)
		clean = i + 1
		if c < 0x20 {
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		} else {
			b = append(b, '\\', c)
		}
	}
	b = append(b, s[clean:]...)
	return append(b, '"')
}
