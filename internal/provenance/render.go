package provenance

import (
	"fmt"
	"sort"
	"strconv"

	"tieredmem/internal/order"
	"tieredmem/internal/report"
)

// TimelineTable renders one page's decision records as the per-epoch
// audit timeline `tmpwhy -page` and `tmpsim -why` print.
func TimelineTable(pg *PageLog) *report.Table {
	title := fmt.Sprintf("Decision timeline pid=%d vpn=0x%x (flips=%d, dropped=%d)",
		pg.Key.PID, uint64(pg.Key.VPN), pg.Flips, pg.Dropped)
	t := report.NewTable(title,
		"epoch", "abit", "ibs", "dev", "rank", "pos", "tier", "move", "verdict")
	for i := range pg.Records {
		rec := &pg.Records[i]
		move := "-"
		if rec.From >= 0 && rec.To >= 0 {
			move = strconv.Itoa(int(rec.From)) + "->" + strconv.Itoa(int(rec.To))
		}
		verdict := rec.Verdict.Reason(rec.Fail)
		if rec.Degraded {
			verdict += " [degraded:" + rec.Method.String() + "]"
		}
		t.AddRow(rec.Epoch, rec.Abit, rec.Trace, rec.Dev,
			rec.Rank, rec.Pos, rec.Tier, move, verdict)
	}
	return t
}

// PingPongTable lists the run's worst ping-pong pages: the pages whose
// promotions reversed into demotions within the recorder's window,
// ordered by flip count (ties by canonical page order so output stays
// deterministic).
func PingPongTable(lg *Log, topN int) *report.Table {
	type pp struct {
		idx   int
		flips uint32
	}
	var hot []pp
	for i := range lg.Pages {
		if lg.Pages[i].Flips > 0 {
			hot = append(hot, pp{idx: i, flips: lg.Pages[i].Flips})
		}
	}
	sort.SliceStable(hot, func(a, b int) bool { return hot[a].flips > hot[b].flips })
	if topN > 0 && len(hot) > topN {
		hot = hot[:topN]
	}
	t := report.NewTable(fmt.Sprintf("Top ping-pong pages (%s, window=%d epochs)", lg.Label, lg.PingPongK),
		"pid", "vpn", "flips", "records", "dropped")
	for _, h := range hot {
		pg := &lg.Pages[h.idx]
		t.AddRow(pg.Key.PID, fmt.Sprintf("0x%x", uint64(pg.Key.VPN)),
			pg.Flips, len(pg.Records), pg.Dropped)
	}
	return t
}

// DecisiveTable reports, across every promotion in the log, which
// profiling mechanism supplied the decisive (largest) share of the
// promoted page's evidence vector — the per-mechanism "who actually
// drove placement" breakdown. Ties break in mechanism order
// (abit > ibs > dev); promotions with an all-zero vector count under
// "none".
func DecisiveTable(lg *Log) *report.Table {
	names := [4]string{"abit", "ibs", "dev", "none"}
	var counts [4]int
	total := 0
	for i := range lg.Pages {
		for j := range lg.Pages[i].Records {
			rec := &lg.Pages[i].Records[j]
			if rec.Verdict != VerdictPromoted {
				continue
			}
			total++
			ev := [3]uint32{rec.Abit, rec.Trace, rec.Dev}
			best, bestV := 3, uint32(0)
			for k, v := range ev {
				if v > bestV {
					best, bestV = k, v
				}
			}
			counts[best]++
		}
	}
	t := report.NewTable(fmt.Sprintf("Decisive evidence per promotion (%s, %d promotions)", lg.Label, total),
		"mechanism", "promotions", "share")
	for i, n := range names {
		if counts[i] == 0 && n == "none" {
			continue
		}
		share := "0.0%"
		if total > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(counts[i])/float64(total))
		}
		t.AddRow(n, counts[i], share)
	}
	return t
}

// SummaryTable is the run-level provenance overview `tmpwhy` leads
// with: page counts and verdict totals across every surviving record.
func SummaryTable(lg *Log) *report.Table {
	counts := map[string]int{}
	records := 0
	for i := range lg.Pages {
		for j := range lg.Pages[i].Records {
			rec := &lg.Pages[i].Records[j]
			counts[rec.Verdict.Reason(rec.Fail)]++
			records++
		}
	}
	t := report.NewTable(fmt.Sprintf("Provenance summary (%s): %d pages, %d records",
		lg.Label, len(lg.Pages), records),
		"verdict", "records")
	for _, k := range order.SortedKeys(counts) {
		t.AddRow(k, counts[k])
	}
	return t
}
