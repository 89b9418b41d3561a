// Package workload provides deterministic memory-reference generators
// that reproduce the access-pattern shapes of the paper's Table III
// evaluation set: four CloudSuite services (Data-Analytics,
// Data-Caching, Graph-Analytics, Web-Serving) and four HPC codes
// (Graph500, GUPS, LULESH, XSBench). Each generator emits an infinite,
// seeded stream of trace.Refs from one or more simulated processes,
// interleaved round-robin the way concurrently running instances
// interleave on a real machine. Footprints are scaled from the paper's
// testbed (64 GB) to laptop scale; every experiment depends on access
// *shape* (skew, scan-vs-random, phase structure) rather than absolute
// bytes.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"tieredmem/internal/mem"
	"tieredmem/internal/trace"
)

// Workload is an infinite reference stream from one or more processes.
type Workload interface {
	// Name returns the Table III workload name.
	Name() string
	// Processes lists the PIDs the stream multiplexes.
	Processes() []int
	// FootprintBytes estimates the total distinct bytes touched.
	FootprintBytes() uint64
	// Fill writes exactly len(buf) references and never ends.
	Fill(buf []trace.Ref)
	// HugeRegions lists the virtual ranges the kernel would back
	// with transparent huge pages: the big anonymous heaps of the
	// HPC codes. Cloud services (many small allocations, page
	// cache) return none.
	HugeRegions() []VRange
}

// VRange is a per-process virtual address range [Start, End).
type VRange struct {
	PID        int
	Start, End uint64
}

// Contains reports whether the range covers (pid, vaddr).
func (r VRange) Contains(pid int, vaddr uint64) bool {
	return r.PID == pid && vaddr >= r.Start && vaddr < r.End
}

// HugeHintFor builds a (pid, vpn)->bool predicate over a workload's
// huge regions, in the shape cpu.Machine.SetHugeHint expects. A page
// is huge-backable only when its entire 2 MiB chunk lies inside one
// region — THP's VMA-coverage rule.
func HugeHintFor(w Workload) func(pid int, vpn mem.VPN) bool {
	ranges := w.HugeRegions()
	const hugeBytes = uint64(mem.HugePages) << mem.PageShift
	return func(pid int, vpn mem.VPN) bool {
		chunk := (uint64(vpn) << mem.PageShift) &^ (hugeBytes - 1)
		for _, r := range ranges {
			if r.Contains(pid, chunk) && r.Contains(pid, chunk+hugeBytes-1) {
				return true
			}
		}
		return false
	}
}

// Config tunes a generator.
type Config struct {
	// Seed drives all randomness; equal seeds give equal streams.
	Seed int64
	// ScaleShift shrinks footprints: region sizes are divided by
	// 1<<ScaleShift relative to the package defaults. Negative
	// values grow them.
	ScaleShift int
	// FirstPID numbers the workload's processes starting here.
	FirstPID int
}

// DefaultConfig seeds a workload deterministically.
func DefaultConfig() Config { return Config{Seed: 42, FirstPID: 100} }

// MaxGrowShift bounds negative ScaleShift (footprint growth) so that
// no generator's region set can overflow a process's 16 GiB address
// budget (region() panics past it): the largest package-default region
// is 16 MiB and no generator allocates more than a handful per
// process, so x32 keeps every configuration — including fuzzed ones —
// comfortably inside procSpacing. A ScaleShift below -MaxGrowShift
// grows footprints by exactly this much; the command-line tools reject
// one instead.
const MaxGrowShift = 5

func (c Config) scaled(bytes uint64) uint64 {
	shift := c.ScaleShift
	if shift < -MaxGrowShift {
		shift = -MaxGrowShift
	}
	if shift > 63 {
		shift = 63
	}
	if shift > 0 {
		bytes >>= uint(shift)
	} else if shift < 0 {
		bytes <<= uint(-shift)
	}
	if bytes < mem.PageSize {
		bytes = mem.PageSize
	}
	return bytes
}

// proc is one simulated process: a private virtual address space plus
// its own PRNG and a pending-reference queue so generators can emit
// multi-access operations (e.g. a read-modify-write) atomically. The
// queue's live refs are pending[head:].
type proc struct {
	pid     int
	base    uint64
	nextVA  uint64
	rng     *rand.Rand
	pending []trace.Ref
	head    int
}

// procSpacing keeps process address spaces disjoint (16 GiB apart)
// while staying inside the page table's 36-bit VPN space.
const procSpacing = uint64(16) << 30

func newProc(pid int, seed int64) *proc {
	base := uint64(pid) * procSpacing
	return &proc{
		pid:    pid,
		base:   base,
		nextVA: base,
		rng:    rand.New(rand.NewSource(seed ^ int64(uint64(pid)*0x9e3779b97f4a7c15))),
	}
}

// region reserves a contiguous virtual range of the given size,
// page-aligned.
func (p *proc) region(bytes uint64) region {
	start := p.nextVA
	size := (bytes + mem.PageMask) &^ uint64(mem.PageMask)
	p.nextVA += size
	if p.nextVA-p.base > procSpacing {
		panic(fmt.Sprintf("workload: pid %d exceeds its %d GiB address budget", p.pid, procSpacing>>30))
	}
	return region{start: start, size: size}
}

// region is a contiguous virtual address range.
type region struct {
	start, size uint64
}

// at returns the byte address at offset (wrapped into the region).
func (r region) at(off uint64) uint64 { return r.start + off%r.size }

// push queues a reference for delivery.
func (p *proc) push(ip uint64, vaddr uint64, k trace.Kind) {
	p.pending = append(p.pending, trace.Ref{PID: p.pid, IP: ip, VAddr: vaddr, Kind: k})
}

// pop delivers the oldest queued reference; gen is invoked to refill
// when the queue is empty. Generators push only from gen, so the queue
// is rewound to the start of its buffer before each refill.
func (p *proc) pop(gen func()) trace.Ref {
	for p.head == len(p.pending) {
		p.pending, p.head = p.pending[:0], 0
		gen()
	}
	r := p.pending[p.head]
	p.head++
	return r
}

// multiplex round-robins references across processes.
type multiplex struct {
	name   string
	procs  []*proc
	gens   []func() // per-proc refill functions
	bytes  uint64
	cursor int
	huge   []VRange
}

// markHuge records a region as THP-backed.
func (m *multiplex) markHuge(p *proc, r region) {
	m.huge = append(m.huge, VRange{PID: p.pid, Start: r.start, End: r.start + r.size})
}

// HugeRegions implements Workload.
func (m *multiplex) HugeRegions() []VRange { return m.huge }

func (m *multiplex) Name() string { return m.name }

func (m *multiplex) Processes() []int {
	out := make([]int, len(m.procs))
	for i, p := range m.procs {
		out[i] = p.pid
	}
	return out
}

func (m *multiplex) FootprintBytes() uint64 { return m.bytes }

func (m *multiplex) Fill(buf []trace.Ref) {
	for i := range buf {
		p := m.procs[m.cursor]
		buf[i] = p.pop(m.gens[m.cursor])
		m.cursor = (m.cursor + 1) % len(m.procs)
	}
}

// Names lists the Table III workloads in presentation order.
var Names = []string{
	"data-analytics",
	"data-caching",
	"graph500",
	"graph-analytics",
	"gups",
	"lulesh",
	"web-serving",
	"xsbench",
}

// New builds a workload by Table III name.
func New(name string, cfg Config) (Workload, error) {
	switch name {
	case "data-analytics":
		return NewDataAnalytics(cfg), nil
	case "data-caching":
		return NewDataCaching(cfg), nil
	case "graph500":
		return NewGraph500(cfg), nil
	case "graph-analytics":
		return NewGraphAnalytics(cfg), nil
	case "gups":
		return NewGUPS(cfg), nil
	case "lulesh":
		return NewLULESH(cfg), nil
	case "web-serving":
		return NewWebServing(cfg), nil
	case "xsbench":
		return NewXSBench(cfg), nil
	case "phase-shift":
		return NewPhaseShift(cfg), nil
	case "write-split":
		return NewWriteSplit(cfg), nil
	default:
		return nil, fmt.Errorf("workload: unknown name %q (known: %s, phase-shift, write-split)", name, strings.Join(Names, ", "))
	}
}

// MustNew is New for known-good names.
func MustNew(name string, cfg Config) Workload {
	w, err := New(name, cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// sortedCopy returns a sorted copy of xs (used by generators building
// lookup grids).
func sortedCopy(xs []uint64) []uint64 {
	out := make([]uint64, len(xs))
	copy(out, xs)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
