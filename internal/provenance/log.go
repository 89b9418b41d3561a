package provenance

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"tieredmem/internal/core"
	"tieredmem/internal/mem"
	"tieredmem/internal/telemetry"
)

// Log is one run's serializable provenance: every page the recorder
// saw (canonical (PID, VPN) order) with its surviving decision ring,
// oldest record first.
type Log struct {
	Schema    int
	Label     string
	LastK     int
	PingPongK int
	Pages     []PageLog
}

// PageLog is one page's provenance: its ping-pong flip count, how
// many older records the ring dropped, and the surviving records. In a
// log from Recorder.Snapshot, Records is the page's ring itself, not a
// copy.
type PageLog struct {
	Key     core.PageKey
	Flips   uint32
	Dropped uint64
	Records []Record
}

// Find returns the page's log entry, nil when the recorder never saw
// it. Pages are sorted, but the linear walk is fine at query time.
func (lg *Log) Find(key core.PageKey) *PageLog {
	for i := range lg.Pages {
		if lg.Pages[i].Key == key {
			return &lg.Pages[i]
		}
	}
	return nil
}

// WriteLog serializes logs as deterministic JSONL, one self-describing
// object per line with fields in fixed order (the same contract as the
// telemetry event log — parallel-identity tests compare these bytes):
//
//	{"type":"run","schema":1,"label":"history/tmp","last_k":8,"pingpong_k":4}
//	{"type":"page","pid":100,"vpn":"0x2a","flips":1,"dropped":0,"records":5}
//	{"type":"decision","pid":100,"vpn":"0x2a","epoch":3,"abit":1,"ibs":2,...}
//
// Each page line is followed by its decision lines, oldest first. The
// log reaches w in chunks of about telemetry.ChunkSize.
func WriteLog(w io.Writer, logs []Log) error {
	var b []byte
	for li := range logs {
		lg := &logs[li]
		b = append(b, `{"type":"run"`...)
		b = telemetry.AppendIntField(b, "schema", int64(lg.Schema))
		b = telemetry.AppendStringField(b, "label", lg.Label)
		b = telemetry.AppendIntField(b, "last_k", int64(lg.LastK))
		b = telemetry.AppendIntField(b, "pingpong_k", int64(lg.PingPongK))
		b = append(b, "}\n"...)
		for pi := range lg.Pages {
			pg := &lg.Pages[pi]
			b = append(b, `{"type":"page"`...)
			b = telemetry.AppendIntField(b, "pid", int64(pg.Key.PID))
			b = telemetry.AppendHexField(b, "vpn", uint64(pg.Key.VPN))
			b = telemetry.AppendUintField(b, "flips", uint64(pg.Flips))
			b = telemetry.AppendUintField(b, "dropped", pg.Dropped)
			b = telemetry.AppendIntField(b, "records", int64(len(pg.Records)))
			b = append(b, "}\n"...)
			for ri := range pg.Records {
				b = appendDecisionLine(b, pg.Key, &pg.Records[ri])
			}
			if len(b) >= telemetry.ChunkSize {
				if _, err := w.Write(b); err != nil {
					return err
				}
				b = b[:0]
			}
		}
	}
	if len(b) > 0 {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

func appendDecisionLine(b []byte, key core.PageKey, rec *Record) []byte {
	b = append(b, `{"type":"decision"`...)
	b = telemetry.AppendIntField(b, "pid", int64(key.PID))
	b = telemetry.AppendHexField(b, "vpn", uint64(key.VPN))
	b = telemetry.AppendIntField(b, "epoch", int64(rec.Epoch))
	b = telemetry.AppendUintField(b, "abit", uint64(rec.Abit))
	b = telemetry.AppendUintField(b, "ibs", uint64(rec.Trace))
	b = telemetry.AppendUintField(b, "dev", uint64(rec.Dev))
	b = telemetry.AppendUintField(b, "rank", rec.Rank)
	b = telemetry.AppendIntField(b, "pos", int64(rec.Pos))
	b = telemetry.AppendIntField(b, "tier", int64(rec.Tier))
	b = telemetry.AppendStringField(b, "verdict", rec.Verdict.Reason(rec.Fail))
	b = telemetry.AppendIntField(b, "from", int64(rec.From))
	b = telemetry.AppendIntField(b, "to", int64(rec.To))
	b = telemetry.AppendBoolField(b, "selected", rec.Selected)
	b = telemetry.AppendBoolField(b, "degraded", rec.Degraded)
	b = telemetry.AppendStringField(b, "method", rec.Method.String())
	return append(b, "}\n"...)
}

// lineKeys lists, per line type, every key WriteLog emits for it
// besides "type". ReadLog rejects a line that lacks one, because
// encoding/json would read the missing key as zero.
var lineKeys = map[string][]string{
	"run":  {"schema", "label", "last_k", "pingpong_k"},
	"page": {"pid", "vpn", "flips", "dropped", "records"},
	"decision": {"pid", "vpn", "epoch", "abit", "ibs", "dev", "rank", "pos", "tier",
		"verdict", "from", "to", "selected", "degraded", "method"},
}

// logLine is the union of the three line shapes for the reader.
type logLine struct {
	Type      string `json:"type"`
	Schema    int    `json:"schema"`
	Label     string `json:"label"`
	LastK     int    `json:"last_k"`
	PingPongK int    `json:"pingpong_k"`

	PID     int    `json:"pid"`
	VPN     string `json:"vpn"`
	Flips   uint32 `json:"flips"`
	Dropped uint64 `json:"dropped"`
	Records int    `json:"records"`

	Epoch    int32  `json:"epoch"`
	Abit     uint32 `json:"abit"`
	IBS      uint32 `json:"ibs"`
	Dev      uint32 `json:"dev"`
	Rank     uint64 `json:"rank"`
	Pos      int32  `json:"pos"`
	Tier     int8   `json:"tier"`
	Verdict  string `json:"verdict"`
	From     int8   `json:"from"`
	To       int8   `json:"to"`
	Selected bool   `json:"selected"`
	Degraded bool   `json:"degraded"`
	Method   string `json:"method"`
}

// ParsePageKey parses a CLI page operand of the form pid:vpn, with the
// vpn in hex (0x-prefixed) or decimal — the notation `tmpsim -why` and
// `tmpwhy -page` accept.
func ParsePageKey(s string) (core.PageKey, error) {
	pidStr, vpnStr, ok := strings.Cut(s, ":")
	if !ok {
		return core.PageKey{}, fmt.Errorf("provenance: bad page %q: want pid:vpn (e.g. 100:0x2a7)", s)
	}
	pid, err := strconv.Atoi(pidStr)
	if err != nil {
		return core.PageKey{}, fmt.Errorf("provenance: bad pid in %q: %v", s, err)
	}
	base := 10
	if strings.HasPrefix(vpnStr, "0x") {
		vpnStr, base = vpnStr[2:], 16
	}
	vpn, err := strconv.ParseUint(vpnStr, base, 64)
	if err != nil {
		return core.PageKey{}, fmt.Errorf("provenance: bad vpn in %q: %v", s, err)
	}
	return core.PageKey{PID: pid, VPN: mem.VPN(vpn)}, nil
}

func parseKey(l *logLine) (core.PageKey, error) {
	vpn, err := strconv.ParseUint(strings.TrimPrefix(l.VPN, "0x"), 16, 64)
	if err != nil {
		return core.PageKey{}, fmt.Errorf("provenance: bad vpn %q: %w", l.VPN, err)
	}
	return core.PageKey{PID: l.PID, VPN: mem.VPN(vpn)}, nil
}

// ReadLog parses a provenance JSONL stream back into its Logs. It is
// strict, so downstream consumers detect format drift: every line must
// carry every key WriteLog emits for its type, every run line must
// carry this reader's schema version, every page must be followed by
// exactly its records count of decision lines, every verdict must be
// one Verdict.Reason produces, and every method one core.ParseMethod
// accepts. Keys it does not know are ignored.
func ReadLog(rd io.Reader) ([]Log, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var logs []Log
	var open *PageLog // the page whose decision lines are being read
	want := 0         // decision lines open announced
	closePage := func(lineNo int) error {
		if open != nil && len(open.Records) != want {
			return fmt.Errorf("provenance: line %d: page pid=%d vpn=%#x announced %d records, read %d",
				lineNo, open.Key.PID, uint64(open.Key.VPN), want, len(open.Records))
		}
		open = nil
		return nil
	}
	lineNo := 0
	keys := make(map[string]json.RawMessage)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var l logLine
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, fmt.Errorf("provenance: line %d: %w", lineNo, err)
		}
		clear(keys)
		if err := json.Unmarshal(line, &keys); err != nil {
			return nil, fmt.Errorf("provenance: line %d: %w", lineNo, err)
		}
		for _, k := range lineKeys[l.Type] {
			if _, ok := keys[k]; !ok {
				return nil, fmt.Errorf("provenance: line %d: %s line lacks key %q", lineNo, l.Type, k)
			}
		}
		switch l.Type {
		case "run":
			if err := closePage(lineNo); err != nil {
				return nil, err
			}
			if l.Schema != telemetry.SchemaVersion {
				return nil, fmt.Errorf("provenance: line %d: schema %d, this reader expects %d", lineNo, l.Schema, telemetry.SchemaVersion)
			}
			logs = append(logs, Log{Schema: l.Schema, Label: l.Label, LastK: l.LastK, PingPongK: l.PingPongK})
		case "page":
			if len(logs) == 0 {
				return nil, fmt.Errorf("provenance: line %d: page before any run header", lineNo)
			}
			if err := closePage(lineNo); err != nil {
				return nil, err
			}
			key, err := parseKey(&l)
			if err != nil {
				return nil, err
			}
			lg := &logs[len(logs)-1]
			lg.Pages = append(lg.Pages, PageLog{Key: key, Flips: l.Flips, Dropped: l.Dropped})
			open, want = &lg.Pages[len(lg.Pages)-1], l.Records
		case "decision":
			if open == nil {
				return nil, fmt.Errorf("provenance: line %d: decision before any page", lineNo)
			}
			key, err := parseKey(&l)
			if err != nil {
				return nil, err
			}
			if open.Key != key {
				return nil, fmt.Errorf("provenance: line %d: decision for pid=%d vpn=%s under page pid=%d vpn=%#x",
					lineNo, l.PID, l.VPN, open.Key.PID, uint64(open.Key.VPN))
			}
			v, f, ok := verdictFromReason(l.Verdict)
			if !ok {
				return nil, fmt.Errorf("provenance: line %d: unknown verdict %q", lineNo, l.Verdict)
			}
			method, err := core.ParseMethod(l.Method)
			if err != nil {
				return nil, fmt.Errorf("provenance: line %d: %w", lineNo, err)
			}
			open.Records = append(open.Records, Record{
				Epoch: l.Epoch, Pos: l.Pos, Rank: l.Rank,
				Abit: l.Abit, Trace: l.IBS, Dev: l.Dev,
				Tier: l.Tier, From: l.From, To: l.To,
				Verdict: v, Fail: f,
				Selected: l.Selected, Degraded: l.Degraded,
				Method: method,
			})
		default:
			return nil, fmt.Errorf("provenance: line %d: unknown line type %q", lineNo, l.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := closePage(lineNo); err != nil {
		return nil, err
	}
	return logs, nil
}
