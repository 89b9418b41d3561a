// Package trace defines the memory-reference record types that flow
// between the workload generators, the simulated machine, and the
// profiling mechanisms, together with the ring buffers the sampling
// engines use.
package trace

import "fmt"

// Kind classifies a memory reference.
type Kind uint8

const (
	// Load is a demand load.
	Load Kind = iota
	// Store is a demand store.
	Store
	// PrefetchFill is a fill initiated by the hardware prefetcher. It
	// is not a demand access: the paper's TMP deliberately excludes
	// prefetcher fills from profiling because serving them from fast
	// memory does not shorten the critical path.
	PrefetchFill
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case PrefetchFill:
		return "prefetch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Ref is one memory reference as produced by a workload generator. The
// address is virtual; the simulated machine translates it.
type Ref struct {
	PID   int    // owning process
	IP    uint64 // instruction pointer issuing the access
	VAddr uint64 // virtual byte address
	Kind  Kind
}

// DataSource reports where a demand access was ultimately served from.
// It mirrors the northbridge/data-source field of an IBS record.
type DataSource uint8

const (
	SrcL1 DataSource = iota
	SrcL2
	SrcLLC
	SrcTier1 // fast memory (DRAM)
	SrcTier2 // slow memory (NVM)
)

// String returns a short human-readable name for the data source.
func (s DataSource) String() string {
	switch s {
	case SrcL1:
		return "l1"
	case SrcL2:
		return "l2"
	case SrcLLC:
		return "llc"
	case SrcTier1:
		return "tier1"
	case SrcTier2:
		return "tier2"
	default:
		return fmt.Sprintf("src(%d)", uint8(s))
	}
}

// IsMemory reports whether the access was served by actual memory
// (either tier) rather than a cache level.
func (s DataSource) IsMemory() bool { return s == SrcTier1 || s == SrcTier2 }

// Outcome is the machine's view of a completed reference: everything a
// trace-based sampler (IBS/PEBS) could capture about it, plus fields
// the simulator itself needs for ground truth.
type Outcome struct {
	Ref
	PAddr    uint64     // translated physical byte address
	Now      int64      // virtual time (ns) at retirement
	CPU      int        // core that executed the access
	Source   DataSource // where the data came from
	TLBMiss  bool       // address translation missed all TLB levels
	Latency  int64      // ns charged to this access
	PageWalk bool       // a page-table walk was performed
	// PrefetchHit marks a demand access served by a line the
	// prefetcher staged; TMP discounts these (§III-A).
	PrefetchHit bool
}

// Sample is the record an IBS/PEBS-style engine stores for a tagged
// access: timestamp, CPU, PID, instruction pointer, virtual and
// physical data addresses, access type and cache/TLB statistics, as
// listed in the paper's §III-B1.
type Sample struct {
	Now     int64
	CPU     int
	PID     int
	IP      uint64
	VAddr   uint64
	PAddr   uint64
	Kind    Kind
	Source  DataSource
	TLBMiss bool
	Latency int64
}

// SampleFromOutcome builds the sampler-visible record for a completed
// access.
func SampleFromOutcome(o *Outcome) Sample {
	return Sample{
		Now:     o.Now,
		CPU:     o.CPU,
		PID:     o.PID,
		IP:      o.IP,
		VAddr:   o.VAddr,
		PAddr:   o.PAddr,
		Kind:    o.Kind,
		Source:  o.Source,
		TLBMiss: o.TLBMiss,
		Latency: o.Latency,
	}
}
