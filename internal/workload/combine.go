package workload

import (
	"fmt"
	"strings"

	"tieredmem/internal/trace"
)

// combined multiplexes several workloads onto one machine — the
// paper's datacenter setting ("VMs consolidated on individual cloud
// servers"), where the TMP daemon's resource filter earns its keep by
// excluding idle processes from A-bit walks. Shares weight the
// interleave: a workload with share 3 emits three references for every
// one from a share-1 workload.
type combined struct {
	name    string
	parts   []Workload
	shares  []int
	cursor  int
	credit  int
	procs   []int
	bytes   uint64
	hugeAgg []VRange
	// one is the single-reference buffer Fill hands each part; kept
	// here because a local would escape through the interface call.
	one [1]trace.Ref
}

// Combine interleaves workloads with equal shares.
func Combine(parts ...Workload) (Workload, error) {
	shares := make([]int, len(parts))
	for i := range shares {
		shares[i] = 1
	}
	return CombineWeighted(parts, shares)
}

// CombineWeighted interleaves workloads with explicit shares. PID sets
// must be disjoint.
func CombineWeighted(parts []Workload, shares []int) (Workload, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("workload: Combine needs at least one workload")
	}
	if len(shares) != len(parts) {
		return nil, fmt.Errorf("workload: %d shares for %d workloads", len(shares), len(parts))
	}
	c := &combined{parts: parts, shares: shares}
	seen := map[int]string{}
	var names []string
	for i, p := range parts {
		if shares[i] <= 0 {
			return nil, fmt.Errorf("workload: share %d for %q must be positive", shares[i], p.Name())
		}
		names = append(names, p.Name())
		c.bytes += p.FootprintBytes()
		c.hugeAgg = append(c.hugeAgg, p.HugeRegions()...)
		for _, pid := range p.Processes() {
			if prev, ok := seen[pid]; ok {
				return nil, fmt.Errorf("workload: pid %d used by both %q and %q", pid, prev, p.Name())
			}
			seen[pid] = p.Name()
			c.procs = append(c.procs, pid)
		}
	}
	c.name = strings.Join(names, "+")
	c.credit = shares[0]
	return c, nil
}

// Name implements Workload.
func (c *combined) Name() string { return c.name }

// Processes implements Workload.
func (c *combined) Processes() []int { return c.procs }

// FootprintBytes implements Workload.
func (c *combined) FootprintBytes() uint64 { return c.bytes }

// HugeRegions implements Workload.
func (c *combined) HugeRegions() []VRange { return c.hugeAgg }

// Fill implements Workload: weighted round-robin over the parts, one
// reference at a time so interleaving stays fine-grained.
func (c *combined) Fill(buf []trace.Ref) {
	for i := range buf {
		for c.credit == 0 {
			c.cursor = (c.cursor + 1) % len(c.parts)
			c.credit = c.shares[c.cursor]
		}
		c.parts[c.cursor].Fill(c.one[:])
		buf[i] = c.one[0]
		c.credit--
	}
}
