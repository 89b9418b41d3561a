package provenance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"tieredmem/internal/core"
	"tieredmem/internal/order"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/testalloc"
)

// sampleLogText is a WriteLog output covering a moved page, a failed
// migration and a page with no surviving records.
func sampleLogText(t testing.TB) string {
	t.Helper()
	logs := []Log{{
		Schema: telemetry.SchemaVersion, Label: "gups/tmp", LastK: DefaultLastK, PingPongK: 4,
		Pages: []PageLog{
			{Key: key(100, 0x2a7), Flips: 1, Records: []Record{
				{Epoch: 3, Rank: 5, Abit: 1, Trace: 4, Tier: 1, From: 1, To: 0,
					Verdict: VerdictPromoted, Selected: true, Method: core.MethodCombined},
				{Epoch: 4, Pos: -1, Tier: -1, From: -1, To: -1,
					Verdict: VerdictFailed, Fail: FailCapacity, Degraded: true, Method: core.MethodAbit},
			}},
			{Key: key(101, 0), Dropped: 3},
		},
	}}
	var buf bytes.Buffer
	if err := WriteLog(&buf, logs); err != nil {
		t.Fatalf("WriteLog: %v", err)
	}
	return buf.String()
}

// TestReadLogRejectsGarbage pins the reader's strictness: a verdict
// Reason cannot produce, a method ParseMethod rejects, and a page whose
// decision lines do not match its records count are errors, not
// silently rewritten records.
func TestReadLogRejectsGarbage(t *testing.T) {
	good := sampleLogText(t)
	if _, err := ReadLog(strings.NewReader(good)); err != nil {
		t.Fatalf("ReadLog rejected a WriteLog output: %v", err)
	}
	for _, tc := range []struct{ name, old, new string }{
		{"bogus verdict", `"verdict":"promoted"`, `"verdict":"bogus"`},
		{"bogus method", `"method":"tmp"`, `"method":"bogus"`},
		{"missing decision line", `"records":2`, `"records":3`},
		{"extra decision line", `"records":2`, `"records":1`},
		{"negative records count", `"dropped":3,"records":0`, `"dropped":3,"records":-1`},
	} {
		bad := strings.Replace(good, tc.old, tc.new, 1)
		if bad == good {
			t.Fatalf("%s: sample has no %s", tc.name, tc.old)
		}
		if _, err := ReadLog(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: ReadLog accepted %s", tc.name, tc.new)
		}
	}
}

// TestReadLogRejectsMissingKey deletes, one at a time, every key that
// WriteLog emits on every line of a sample log, and requires ReadLog to
// name the line and the key: a reader that read the missing key as zero
// would move a decision's evidence without a word.
func TestReadLogRejectsMissingKey(t *testing.T) {
	lines := strings.SplitAfter(sampleLogText(t), "\n")
	types := make(map[string]bool)
	for i, line := range lines {
		if line == "" {
			continue
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &fields); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		typ := strings.Trim(string(fields["type"]), `"`)
		types[typ] = true
		for _, k := range order.SortedKeys(fields) {
			if k == "type" {
				continue
			}
			short := maps.Clone(fields)
			delete(short, k)
			b, err := json.Marshal(short)
			if err != nil {
				t.Fatal(err)
			}
			bad := slices.Clone(lines)
			bad[i] = string(b) + "\n"
			_, err = ReadLog(strings.NewReader(strings.Join(bad, "")))
			want := fmt.Sprintf("line %d: %s line lacks key %q", i+1, typ, k)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s line %d without %q: err %v, want %q", typ, i+1, k, err, want)
			}
		}
	}
	if len(types) != 3 {
		t.Errorf("sample log has line types %v, want run, page and decision", types)
	}
}

// withWriteKey returns log text as writers before the retired PML
// evidence source emitted it: every decision line carries a
// "write":0 key after "ibs".
func withWriteKey(text string) string {
	return regexp.MustCompile(`("type":"decision".*"ibs":\d+)`).ReplaceAllString(text, `$1,"write":0`)
}

// TestReadLogIgnoresWriteKey pins that a log written while decision
// lines still carried the always-zero "write" key reads into the same
// records as today's lines, so the schema did not change.
func TestReadLogIgnoresWriteKey(t *testing.T) {
	good := sampleLogText(t)
	old := withWriteKey(good)
	if n := strings.Count(old, `"write":0`); n != 2 {
		t.Fatalf("old-format sample has %d write keys, want 2:\n%s", n, old)
	}
	want, err := ReadLog(strings.NewReader(good))
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	got, err := ReadLog(strings.NewReader(old))
	if err != nil {
		t.Fatalf("ReadLog rejected a decision line with a write key: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("write key changed the records:\n got %+v\nwant %+v", got, want)
	}
}

// FuzzReadLog checks that anything ReadLog accepts survives a
// WriteLog/ReadLog round trip unchanged.
func FuzzReadLog(f *testing.F) {
	good := sampleLogText(f)
	f.Add(good)
	f.Add(withWriteKey(good))
	f.Add(strings.Replace(strings.Replace(good, `"verdict":"promoted"`, `"verdict":"bogus"`, 1),
		`"method":"tmp"`, `"method":"bogus"`, 1))
	f.Add(strings.Replace(good, `"records":2`, `"records":3`, 1))
	f.Fuzz(func(t *testing.T, in string) {
		logs, err := ReadLog(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteLog(&buf, logs); err != nil {
			t.Fatalf("WriteLog: %v", err)
		}
		back, err := ReadLog(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadLog rejected WriteLog output: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, logs) {
			t.Fatalf("round trip changed the logs:\n got %+v\nwant %+v", back, logs)
		}
	})
}

// FuzzParsePageKey checks that an accepted page operand names the same
// page in the canonical pid:0xvpn notation.
func FuzzParsePageKey(f *testing.F) {
	for _, s := range []string{"100:0x2a7", "100:42", ":", "-1:0x"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParsePageKey(s)
		if err != nil {
			return
		}
		canon := fmt.Sprintf("%d:%#x", k.PID, uint64(k.VPN))
		back, err := ParsePageKey(canon)
		if err != nil || back != k {
			t.Fatalf("ParsePageKey(%q) = %v, but %q parses to %v, %v", s, k, canon, back, err)
		}
	})
}

// TestWriteLogAllocsFlat: the log renders into one buffer it reuses
// for every chunk, and a failed verdict's reason is a constant, so a
// log a hundred times longer costs no more allocations to write.
func TestWriteLogAllocsFlat(t *testing.T) {
	allocs := func(records int) float64 {
		lg := Log{Schema: telemetry.SchemaVersion, Label: "long", LastK: DefaultLastK, PingPongK: DefaultPingPongK}
		for i := 0; i < records; i += DefaultLastK {
			pg := PageLog{Key: key(100+i%4, uint64(i))}
			for j := 0; j < DefaultLastK; j++ {
				pg.Records = append(pg.Records, Record{Epoch: int32(j), Pos: int32(i), Rank: uint64(j), Tier: 1, From: -1, To: -1,
					Verdict: VerdictFailed, Fail: FailReason(j % 6), Method: core.MethodCombined})
			}
			lg.Pages = append(lg.Pages, pg)
		}
		logs := []Log{lg}
		// Three writes in one run, read as a total.
		return testalloc.Count(func() {
			for range 3 {
				if err := WriteLog(io.Discard, logs); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if short, long := allocs(1_000), allocs(100_000); long != short {
		t.Errorf("three WriteLog calls allocate %.0f times for 100,000 records and %.0f for 1,000; want the same", long, short)
	}
}
