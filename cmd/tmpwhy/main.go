// Command tmpwhy audits a decision-provenance log written by
// `tmpsim -prov`: it answers "why did the policy do that to this page"
// from the recorded per-epoch evidence vectors, fused rank positions,
// and typed verdicts, without re-running the simulation.
//
// Usage:
//
//	tmpsim -workload gups -prov prov.jsonl
//	tmpwhy -log prov.jsonl                 # run-level summary tables
//	tmpwhy -log prov.jsonl -page 100:0x2a7 # one page's decision timeline
//	tmpwhy -log prov.jsonl -top 5          # worst ping-pong pages only
//
// The log is deterministic JSONL (schema-versioned, one decision per
// line), so it also greps and jqs cleanly; see OBSERVABILITY.md for
// the record format and the verdict-reason taxonomy.
package main

import (
	"flag"
	"fmt"
	"os"

	"tieredmem/internal/core"
	"tieredmem/internal/provenance"
)

func main() {
	var (
		logPath = flag.String("log", "", "provenance JSONL log to audit (written by tmpsim -prov)")
		page    = flag.String("page", "", "print one page's decision timeline, as pid:vpn (vpn in hex or decimal)")
		top     = flag.Int("top", 10, "ping-pong pages to list in the summary (0 lists all)")
		summary = flag.Bool("summary", false, "print the run-level summary tables (the default when -page is not given)")
	)
	flag.Parse()

	// A missing -log, a malformed -page and a negative -top are usage
	// errors, reported before the log is read: exit code 2 plus the
	// flag usage, as for a mistyped flag.
	if *logPath == "" {
		usageFatal(fmt.Errorf("-log is required (write one with: tmpsim -workload gups -prov prov.jsonl)"))
	}
	if *top < 0 {
		usageFatal(fmt.Errorf("-top %d: must not be negative", *top))
	}
	var key core.PageKey
	if *page != "" {
		k, err := provenance.ParsePageKey(*page)
		if err != nil {
			usageFatal(fmt.Errorf("-page: %w", err))
		}
		key = k
	}

	f, err := os.Open(*logPath)
	if err != nil {
		fatal(err)
	}
	logs, err := provenance.ReadLog(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if len(logs) == 0 {
		fatal(fmt.Errorf("%s holds no provenance runs", *logPath))
	}

	if *page != "" {
		found := false
		for i := range logs {
			if pg := logs[i].Find(key); pg != nil {
				fmt.Printf("run %q:\n", logs[i].Label)
				fmt.Println(provenance.TimelineTable(pg).Render())
				found = true
			}
		}
		if !found {
			fatal(fmt.Errorf("page pid=%d vpn=%#x has no records in %s",
				key.PID, uint64(key.VPN), *logPath))
		}
		if !*summary {
			return
		}
	}

	for i := range logs {
		lg := &logs[i]
		fmt.Println(provenance.SummaryTable(lg).Render())
		fmt.Println(provenance.PingPongTable(lg, *top).Render())
		fmt.Println(provenance.DecisiveTable(lg).Render())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tmpwhy:", err)
	os.Exit(1)
}

// usageFatal reports a flag-value error the way the flag package
// reports an unknown flag: message, usage, exit 2.
func usageFatal(err error) {
	fmt.Fprintln(os.Stderr, "tmpwhy:", err)
	flag.Usage()
	os.Exit(2)
}
