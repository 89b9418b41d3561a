// Package pml models Intel's Page-Modification Logging (§II-B): when
// enabled, every store whose page walk sets a previously clear PTE
// D bit appends the write's physical address (4 KiB aligned) to a
// 512-entry in-memory log; a full log raises a notification so system
// software can drain it. The paper focuses on the A bit for
// performance profiling and cites PML as the automated D-bit
// collection mechanism; this package implements it as an optional
// fourth evidence source (write-path heat), which the WriteBiased
// placement policy consumes on media with asymmetric write cost.
package pml

import (
	"fmt"

	"tieredmem/internal/mem"
	"tieredmem/internal/trace"
)

// LogEntries is the architectural PML log size.
const LogEntries = 512

// Config parameterizes the engine.
type Config struct {
	// LogSize overrides the 512-entry architectural log (tests use
	// smaller logs; 0 means architectural).
	LogSize int
	// DrainCost is the virtual-ns cost of the log-full notification
	// plus draining one full log (a VM-exit-class event).
	DrainCost int64
	// PerEntryCost is the hardware append cost charged per logged
	// write (tiny; the log write is a cache store).
	PerEntryCost int64
}

// DefaultConfig returns production settings.
func DefaultConfig() Config {
	return Config{LogSize: LogEntries, DrainCost: 4000, PerEntryCost: 2}
}

// Stats exposes engine counters.
type Stats struct {
	Logged     uint64 // D-bit-set events appended
	Drains     uint64 // log-full notifications
	OverheadNS int64
}

// Engine is the PML device. It implements cpu.RetireObserver.
type Engine struct {
	cfg      Config
	phys     *mem.PhysMem
	log      []uint64 // physical page addresses
	stats    Stats
	disabled bool
	// onDrain, when set, observes each drained batch.
	onDrain func(pages []uint64)
}

// New builds an engine bound to physical memory. phys may be nil if
// only raw logging is wanted.
func New(cfg Config, phys *mem.PhysMem) (*Engine, error) {
	if cfg.LogSize == 0 {
		cfg.LogSize = LogEntries
	}
	if cfg.LogSize < 1 {
		return nil, fmt.Errorf("pml: log size %d must be positive", cfg.LogSize)
	}
	return &Engine{
		cfg:  cfg,
		phys: phys,
		log:  make([]uint64, 0, cfg.LogSize),
	}, nil
}

// SetDrainObserver registers a hook that sees each drained batch of
// 4 KiB-aligned physical addresses.
func (e *Engine) SetDrainObserver(fn func(pages []uint64)) { e.onDrain = fn }

// Enable resumes logging.
func (e *Engine) Enable() { e.disabled = false }

// Disable pauses logging.
func (e *Engine) Disable() { e.disabled = true }

// Enabled reports whether logging is active.
func (e *Engine) Enabled() bool { return !e.disabled }

// ObserveRetire implements cpu.RetireObserver: log D-bit-set events.
func (e *Engine) ObserveRetire(o *trace.Outcome, ops int) int64 {
	if e.disabled || !o.DirtySet {
		return 0
	}
	e.log = append(e.log, o.PAddr&^uint64(mem.PageMask))
	e.stats.Logged++
	cost := e.cfg.PerEntryCost
	if len(e.log) == cap(e.log) {
		cost += e.drain()
	}
	e.stats.OverheadNS += cost
	return cost
}

// drain empties the log into the page descriptors (Epoch.Write) and the
// observer, returning the notification cost.
func (e *Engine) drain() int64 {
	if len(e.log) == 0 {
		return 0
	}
	e.stats.Drains++
	if e.phys != nil {
		for _, paddr := range e.log {
			pd := e.phys.PhysToPage(paddr)
			if pd.Epoch.Write != ^uint32(0) {
				pd.Epoch.Write++
			}
		}
	}
	if e.onDrain != nil {
		e.onDrain(e.log)
	}
	e.log = e.log[:0]
	return e.cfg.DrainCost
}

// Flush drains any partial log immediately (epoch horizon).
func (e *Engine) Flush() {
	cost := e.drain()
	e.stats.OverheadNS += cost
}

// Pending returns the current log occupancy.
func (e *Engine) Pending() int { return len(e.log) }

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }
