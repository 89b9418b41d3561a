// Command benchcmp compares two `go test -bench -benchmem` outputs —
// the PR head and its merge base — and prints a delta table of ns/op,
// B/op and allocs/op. It is the comparator behind the bench-compare CI
// job and uses only the standard library.
//
// Usage:
//
//	go run ./scripts/benchcmp [-allocs-guard REGEX] old.txt new.txt
//
// Benchmarks present only in new.txt are reported as "new" (the merge
// base predates them); benchmarks present only in old.txt are
// reported as "gone". The one hard gate is the allocation guard: any
// benchmark whose name matches -allocs-guard (default
// HarvestSteadyState|ObserveHarvest|MachineExecute|ApplySelection|PlacementEpoch|WorkloadFill|RecorderSnapshot)
// and whose allocs/op increased over the base, or which is gone from
// new.txt, exits 1 — the steady-state harvest, the attached flight
// recorder's epoch, the per-reference Machine.Execute path, every
// generator's steady-state Workload.Fill, the mover's steady-state
// ApplySelection and the policy arm's whole placement epoch are
// contractually allocation-free, and the recorder's Snapshot copies no
// page's records; a regression there (a fresh selection or rank table
// per epoch again, say) silently re-inflates every epoch (or every
// reference) of every experiment cell. A guarded benchmark that is deleted or renamed
// would otherwise take its gate with it; retiring one means dropping
// it from the guard (and the CI -bench list) in the same change.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// result holds one benchmark line's measurements. bytes and allocs
// are -1 when the line carried no B/op or allocs/op column (benchmark
// ran without -benchmem or never calls ReportAllocs).
type result struct {
	nsPerOp float64
	bytes   float64
	allocs  float64
}

// benchLine matches a benchmark result line: name, iteration count,
// ns/op, then optional -benchmem columns. The -N GOMAXPROCS suffix is
// stripped from the name so runs on machines with different core
// counts still line up.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)

var (
	bytesCol  = regexp.MustCompile(`([0-9.]+) B/op`)
	allocsCol = regexp.MustCompile(`([0-9.]+) allocs/op`)
)

func parseFile(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]result)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		r := result{nsPerOp: ns, bytes: -1, allocs: -1}
		if a := bytesCol.FindStringSubmatch(m[3]); a != nil {
			r.bytes, _ = strconv.ParseFloat(a[1], 64)
		}
		if a := allocsCol.FindStringSubmatch(m[3]); a != nil {
			r.allocs, _ = strconv.ParseFloat(a[1], 64)
		}
		// Repeated runs of the same benchmark (e.g. -count>1): keep the
		// fastest, the conventional benchstat-free noise reduction.
		if prev, ok := out[m[1]]; !ok || ns < prev.nsPerOp {
			out[m[1]] = r
		}
	}
	return out, sc.Err()
}

func main() {
	guard := flag.String("allocs-guard", "HarvestSteadyState|ObserveHarvest|MachineExecute|ApplySelection|PlacementEpoch|WorkloadFill|RecorderSnapshot",
		"fail when a benchmark matching this regexp regresses in allocs/op or is gone")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-allocs-guard REGEX] old.txt new.txt")
		os.Exit(2)
	}
	guardRE, err := regexp.Compile(*guard)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: bad -allocs-guard: %v\n", err)
		os.Exit(2)
	}
	old, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	cur, err := parseFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(old)+len(cur))
	seen := make(map[string]bool)
	for n := range cur {
		names = append(names, n)
		seen[n] = true
	}
	for n := range old {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-50s %14s %14s %9s %19s %9s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "B/op", "allocs")
	failed := false
	for _, n := range names {
		o, haveOld := old[n]
		c, haveNew := cur[n]
		switch {
		case !haveNew:
			fmt.Fprintf(w, "%-50s %14.0f %14s %9s %19s %9s\n", n, o.nsPerOp, "gone", "", "", "")
			if guardRE.MatchString(n) {
				failed = true
				fmt.Fprintf(w, "FAIL: %s is guarded but gone from the new run\n", n)
			}
		case !haveOld:
			fmt.Fprintf(w, "%-50s %14s %14.0f %9s %19s %9s\n", n, "new", c.nsPerOp, "", colStr(c.bytes), colStr(c.allocs))
		default:
			delta := (c.nsPerOp - o.nsPerOp) / o.nsPerOp * 100
			fmt.Fprintf(w, "%-50s %14.0f %14.0f %+8.1f%% %19s %9s\n",
				n, o.nsPerOp, c.nsPerOp, delta, colDelta(o.bytes, c.bytes), colDelta(o.allocs, c.allocs))
			if guardRE.MatchString(n) && o.allocs >= 0 && c.allocs > o.allocs {
				failed = true
				fmt.Fprintf(w, "FAIL: %s allocs/op regressed: %.0f -> %.0f\n",
					n, o.allocs, c.allocs)
			}
		}
	}
	if failed {
		w.Flush()
		os.Exit(1)
	}
}

// colStr renders one -benchmem column value, empty when absent.
func colStr(v float64) string {
	if v < 0 {
		return ""
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// colDelta renders a -benchmem column as old->new, empty unless both
// runs carried it.
func colDelta(o, c float64) string {
	if o < 0 || c < 0 {
		return ""
	}
	return colStr(o) + "->" + colStr(c)
}
