package telemetry

import (
	"strings"

	"tieredmem/internal/report"
)

// Attribution aggregates a run's recorded events into per-subsystem
// virtual-time rows: event counts and span-duration sums from the
// event stream, plus any "<sub>/..._ns" counters that subsystems
// maintain for costs charged outside span events. durationNS and
// cores form the core-time denominator (pass 0 cores when unknown; the
// share column then renders n/a).
func (t *Tracer) Attribution(durationNS int64, cores int) []report.AttributionRow {
	if t == nil {
		return nil
	}
	var events [numSubsystems]uint64
	var spanNS [numSubsystems]int64
	for ev := t.Events(); ev.Next(); {
		e := ev.Event()
		events[e.Sub]++
		spanNS[e.Sub] += e.Dur
	}
	// Fold in explicit virtual-time counters for subsystems whose
	// costs are not span-shaped (e.g. mem has no spans at all). A
	// subsystem with span events keeps the span sum — its _ns counters
	// mirror the same charges and must not double-count.
	var counterNS [numSubsystems]int64
	for _, cv := range t.reg.Totals() {
		if !strings.HasSuffix(cv.Name, "_ns") {
			continue
		}
		sub, ok := subsystemOfCounter(cv.Name)
		if !ok {
			continue
		}
		counterNS[sub] += int64(cv.Value)
	}
	denom := float64(durationNS) * float64(cores)
	var rows []report.AttributionRow
	for s := Subsystem(0); s < numSubsystems; s++ {
		ns := spanNS[s]
		if ns == 0 {
			ns = counterNS[s]
		}
		if events[s] == 0 && ns == 0 {
			continue
		}
		share := -1.0
		if denom > 0 {
			share = float64(ns) / denom
		}
		rows = append(rows, report.AttributionRow{
			Subsystem: s.String(),
			Events:    events[s],
			VirtualNS: ns,
			Share:     share,
		})
	}
	return rows
}

// subsystemOfCounter maps a counter's "<sub>/" prefix to its
// subsystem.
func subsystemOfCounter(name string) (Subsystem, bool) {
	prefix, _, ok := strings.Cut(name, "/")
	if !ok {
		return 0, false
	}
	for s := Subsystem(0); s < numSubsystems; s++ {
		if s.String() == prefix {
			return s, true
		}
	}
	return 0, false
}
