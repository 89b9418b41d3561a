// Package fixture exercises the telemetry analyzer: wall-clock and
// global-rand values must never flow into telemetry emit or counter
// calls, even from cmd/-style code the wallclock analyzer skips.
package fixture

import (
	"math/rand"
	"time"

	"tieredmem/internal/telemetry"
)

func emitWallClock(t *telemetry.Tracer) {
	t.EmitDaemonTick(time.Now().UnixNano(), 10) // want `wall-clock time.Now flows into a telemetry call`
}

func cutWallClock(t *telemetry.Tracer, started time.Time) {
	t.CutEpoch(int64(time.Since(started)), 0) // want `wall-clock time.Since flows into a telemetry call`
}

func cutDeadline(t *telemetry.Tracer, deadline time.Time) {
	t.CutEpoch(int64(time.Until(deadline)), 0) // want `wall-clock time.Until flows into a telemetry call`
}

func counterWallClock(t *telemetry.Tracer) {
	t.Counter("host/ns").Set(uint64(time.Now().UnixNano())) // want `wall-clock time.Now flows into a telemetry call`
}

func randomStamp(t *telemetry.Tracer) {
	t.EmitShootdown(int64(rand.Int63()), 0, 1) // want `global rand.Int63 flows into a telemetry call`
}

// hostStamp lives in the caller's own package, and a sink still counts
// it: unlike wallclock, the telemetry rule has no internal/ exemption.
func hostStamp() int64 {
	return time.Now().UnixNano()
}

func launderedLocal(t *telemetry.Tracer) {
	t.EmitDaemonTick(hostStamp(), 1) // want `wall-clock-derived value flows into a telemetry call: fixture.hostStamp derives from time.Now`
}

func virtualTimeOK(t *telemetry.Tracer, now int64) {
	// Virtual timestamps handed down from the simulated machine are the
	// sanctioned stamp.
	t.EmitDaemonTick(now, 5)
	t.Counter("daemon/ticks").Add(1)
}

func wallClockElsewhereOK(now int64) int64 {
	// Wall-clock use away from telemetry calls is the wallclock
	// analyzer's business, not this one's.
	host := time.Now().UnixNano()
	return host - now
}
