package telemetry

import (
	"slices"
	"strings"
)

// Counter is one monotonically increasing telemetry counter. The nil
// Counter is a valid no-op (handed out by a nil Registry), so emit
// sites cache handles once and Add unconditionally. Counter names
// follow "<subsystem>/<metric>[_ns]": the prefix is the attribution
// subsystem, and the _ns suffix marks virtual-time counters.
type Counter struct {
	name string
	v    uint64
	// lastCut is the value at the previous epoch cut; cutEpoch uses it
	// to derive per-epoch deltas.
	lastCut uint64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// AddNS increments a virtual-time counter, ignoring negative costs.
func (c *Counter) AddNS(ns int64) {
	if c == nil || ns <= 0 {
		return
	}
	c.v += uint64(ns)
}

// Set overwrites the counter with an absolute value; engines that
// already keep cumulative stats sync them in at emit points instead of
// double-counting.
func (c *Counter) Set(v uint64) {
	if c == nil {
		return
	}
	c.v = v
}

// Value returns the counter's cumulative value.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Registry is a set of named counters with stable, sorted iteration —
// a map walk through it can never reintroduce the nondeterminism the
// maprange analyzer exists to catch. The zero value is ready to use;
// a nil *Registry hands out nil Counters so disabled telemetry costs
// nothing.
type Registry struct {
	// counters holds every counter in ascending name order: Counter
	// inserts each at its place, so an epoch cut and the totals walk
	// it without sorting.
	counters []*Counter
	// hists holds the log2-bucket distribution metrics (histogram.go);
	// same naming convention, same sorted-iteration rule.
	hists map[string]*Histogram
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	i, ok := slices.BinarySearchFunc(r.counters, name, func(c *Counter, name string) int {
		return strings.Compare(c.name, name)
	})
	if ok {
		return r.counters[i]
	}
	c := &Counter{name: name}
	r.counters = slices.Insert(r.counters, i, c)
	return c
}

// Names returns all registered counter names in ascending order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	names := make([]string, len(r.counters))
	for i, c := range r.counters {
		names[i] = c.name
	}
	return names
}

// CounterValue is one (name, value) pair in a snapshot.
type CounterValue struct {
	Name  string
	Value uint64
}

// EpochCounters is the per-epoch counter aggregation: every counter's
// delta across one epoch, sorted by name, zero deltas omitted.
type EpochCounters struct {
	Epoch int
	Now   int64 // virtual time of the cut
	// Deltas holds each counter's increase during the epoch.
	Deltas []CounterValue
}

// cutEpoch snapshots every counter's delta since the previous cut. It
// allocates Deltas once, at its exact size, and nothing when no
// counter moved.
func (r *Registry) cutEpoch(epoch int, now int64) EpochCounters {
	ec := EpochCounters{Epoch: epoch, Now: now}
	moved := 0
	for _, c := range r.counters {
		if c.v != c.lastCut {
			moved++
		}
	}
	if moved == 0 {
		return ec
	}
	ec.Deltas = make([]CounterValue, 0, moved)
	for _, c := range r.counters {
		if d := c.v - c.lastCut; d != 0 {
			ec.Deltas = append(ec.Deltas, CounterValue{Name: c.name, Value: d})
			c.lastCut = c.v
		}
	}
	return ec
}

// Totals returns every counter's cumulative value, sorted by name,
// zeros omitted.
func (r *Registry) Totals() []CounterValue {
	if r == nil {
		return nil
	}
	out := make([]CounterValue, 0, len(r.counters))
	for _, c := range r.counters {
		if c.v != 0 {
			out = append(out, CounterValue{Name: c.name, Value: c.v})
		}
	}
	return out
}
