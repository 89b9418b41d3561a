// Package experiments implements the paper's evaluation: one function
// per table and figure (Fig. 2, Table IV, Fig. 3, Fig. 4, Fig. 5,
// Fig. 6, the §VI-B overhead study, and the §VI-C end-to-end
// speedups), each returning structured results plus renderers that
// print the same rows and series the paper reports. cmd/tmpbench and
// the root bench_test.go drive these.
package experiments

import (
	"fmt"
	"sync"

	"tieredmem/internal/core"
	"tieredmem/internal/fault"
	"tieredmem/internal/ibs"
	"tieredmem/internal/mem"
	"tieredmem/internal/order"
	"tieredmem/internal/pmu"
	"tieredmem/internal/runner"
	"tieredmem/internal/sim"
	"tieredmem/internal/telemetry"
	"tieredmem/internal/trace"
	"tieredmem/internal/workload"
)

// Options scopes an experiment run.
type Options struct {
	// Seed drives every workload generator.
	Seed int64
	// ScaleShift shrinks workload footprints (see workload.Config).
	ScaleShift int
	// Refs is the per-workload reference count.
	Refs int
	// BasePeriod is the op period of the paper's "default" IBS
	// sampling rate, scaled for laptop-size streams; 4x rate divides
	// it by 4, 8x by 8. (The paper's hardware default is 262144.)
	BasePeriod int
	// Gating enables HWPC-driven profiler on/off control.
	Gating bool
	// Workloads selects Table III names; nil means all eight.
	Workloads []string
	// Parallel bounds how many of an experiment's independent
	// (workload, profiler, config) cells run concurrently. 0 means
	// runtime.GOMAXPROCS(0); 1 restores the historical sequential
	// path. Every cell is a pure function of its seed+config and rows
	// are reassembled in submission order, so rendered output is
	// byte-identical at any setting (see TestParallelEqualsSequential).
	Parallel int
	// NowNS is an optional monotonic clock for runner stats. The
	// simulator's time is virtual cycles and internal/ code must not
	// read the wall clock (tmplint wallclock), so mains inject one.
	NowNS func() int64
	// OnRunnerStats, when set, receives each experiment's worker-pool
	// stats (per-job wall time, queue delay, pool speedup) after its
	// cells complete.
	OnRunnerStats func(experiment string, s runner.Stats)
	// Trace attaches a private telemetry tracer to every profiling run.
	// Telemetry is inert (results are byte-identical either way); the
	// recorded streams come back via Capture.Telemetry / Suite.Traces.
	Trace bool
	// Faults is the suite-wide fault-injection spec (tmpbench
	// -faults); the zero value injects nothing. Every cell derives a
	// private plane from (Faults, Seed), so cells stay pure functions
	// of their config and parallel == sequential still holds under
	// injection.
	Faults fault.Spec
}

// faultPlane derives one cell's private fault plane; nil (inert) when
// the spec is zero. The sim layer attaches telemetry counters when the
// cell is traced.
func (o Options) faultPlane() *fault.Plane {
	if o.Faults.Zero() {
		return nil
	}
	return fault.New(o.Faults, o.Seed)
}

// DefaultOptions returns the laptop-scale defaults used by tests and
// cmd/tmpbench.
func DefaultOptions() Options {
	return Options{
		Seed:       42,
		ScaleShift: 0,
		Refs:       6_000_000,
		BasePeriod: 16384,
		Gating:     true,
	}
}

func (o Options) workloads() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return workload.Names
}

func (o Options) workloadConfig() workload.Config {
	return workload.Config{Seed: o.Seed, ScaleShift: o.ScaleShift, FirstPID: 100}
}

// Rates are the sampling-rate multipliers Table IV sweeps.
var Rates = []int{ibs.Rate1x, ibs.Rate4x, ibs.Rate8x}

// RateName names a rate multiplier the way the paper does.
func RateName(rate int) string {
	switch rate {
	case 1:
		return "default"
	case 4:
		return "4x"
	case 8:
		return "8x"
	default:
		return fmt.Sprintf("%dx", rate)
	}
}

// ParseRate is the inverse of RateName over Rates, also accepting "1x"
// for the default rate.
func ParseRate(s string) (int, error) {
	switch s {
	case "default", "1x":
		return ibs.Rate1x, nil
	case "4x":
		return ibs.Rate4x, nil
	case "8x":
		return ibs.Rate8x, nil
	default:
		return 0, fmt.Errorf("unknown rate %q (default, 4x, 8x)", s)
	}
}

// AbitEvent is one A-bit observation (a leaf PTE seen with A set).
type AbitEvent struct {
	Now  int64
	PID  int
	VPN  mem.VPN
	PFN  mem.PFN // base frame of the leaf
	Huge bool
}

// Capture is everything one profiling run yields for the analyses.
type Capture struct {
	Workload string
	Rate     int
	Result   sim.Result

	// Detection sets. A-bit keys are leaf-granular (a huge leaf is
	// keyed by its base VPN: the compound head, as in Linux's struct
	// page accounting); IBS keys are exact 4 KiB pages.
	AbitPages map[core.PageKey]struct{}
	IBSPages  map[core.PageKey]struct{}

	// Event streams for the heatmaps.
	AbitEvents []AbitEvent
	IBSSamples []trace.Sample

	// Machine-wide PMU sums (Fig. 2).
	STLBMisses uint64
	LLCMisses  uint64

	// Physical address-space bound for heatmap axes.
	PhysBytes uint64

	// Telemetry is the run's private tracer when Options.Trace was set
	// (nil otherwise). Private per capture: parallel cells never share
	// a tracer, which is what keeps exported streams byte-identical at
	// any pool width.
	Telemetry *telemetry.Tracer
}

// Profile runs TMP over one workload at a sampling rate and captures
// detection sets, event streams, and counters.
func Profile(opts Options, name string, rate int) (*Capture, error) {
	w, err := workload.New(name, opts.workloadConfig())
	if err != nil {
		return nil, err
	}
	period := ibs.PeriodForRate(opts.BasePeriod, rate)
	cfg := sim.DefaultConfig(w, period, opts.Refs)
	cfg.TMP.Gating = opts.Gating
	if opts.Trace {
		cfg.Tracer = telemetry.New()
	}
	cfg.Faults = opts.faultPlane()
	r, err := sim.New(cfg, w)
	if err != nil {
		return nil, err
	}

	cp := &Capture{
		Workload:  name,
		Rate:      rate,
		AbitPages: make(map[core.PageKey]struct{}),
		IBSPages:  make(map[core.PageKey]struct{}),
		PhysBytes: uint64(r.Machine.Phys.TotalFrames()) << mem.PageShift,
		Telemetry: cfg.Tracer,
	}
	r.Profiler.Abit.SetLeafObserver(func(now int64, pid int, vpn mem.VPN, pfn mem.PFN, huge bool) {
		cp.AbitPages[core.PageKey{PID: pid, VPN: vpn}] = struct{}{}
		cp.AbitEvents = append(cp.AbitEvents, AbitEvent{Now: now, PID: pid, VPN: vpn, PFN: pfn, Huge: huge})
	})
	r.Profiler.SetSampleObserver(func(s trace.Sample) {
		cp.IBSPages[core.PageKey{PID: s.PID, VPN: mem.VPNOf(s.VAddr)}] = struct{}{}
		cp.IBSSamples = append(cp.IBSSamples, s)
	})

	cp.Result, err = r.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: profiling %s at %s: %w", name, RateName(rate), err)
	}
	for _, c := range r.Machine.Cores() {
		cp.STLBMisses += c.PMU.Raw(pmu.EvSTLBMiss)
		cp.LLCMisses += c.PMU.Raw(pmu.EvLLCMiss)
	}
	return cp, nil
}

// Both counts pages detected by both methods: IBS 4 KiB keys that
// coincide with an A-bit leaf key. For THP-backed pages only the head
// subpage can coincide, which is why the overlap collapses for the HPC
// workloads, as in the paper's Table IV.
func (c *Capture) Both() int {
	n := 0
	for k := range c.IBSPages {
		if _, ok := c.AbitPages[k]; ok {
			n++
		}
	}
	return n
}

// Suite caches captures so the several analyses that share a
// configuration (Figs. 2-6 all reuse the 4x run) profile each workload
// once. It is safe for concurrent use: parallel cell jobs that need
// the same (workload, rate) deduplicate onto one Profile call, and
// because Profile is a pure function of (Opts, name, rate) the cached
// capture is identical no matter which worker computed it.
type Suite struct {
	Opts Options

	mu       sync.Mutex
	captures map[string]*suiteEntry
}

// suiteEntry memoizes one Profile call.
type suiteEntry struct {
	once sync.Once
	cp   *Capture
	err  error
}

// NewSuite builds an empty suite.
func NewSuite(opts Options) *Suite {
	return &Suite{Opts: opts, captures: make(map[string]*suiteEntry)}
}

// Capture returns the cached capture for (workload, rate), profiling
// on first use.
func (s *Suite) Capture(name string, rate int) (*Capture, error) {
	key := fmt.Sprintf("%s@%d", name, rate)
	s.mu.Lock()
	e, ok := s.captures[key]
	if !ok {
		e = &suiteEntry{}
		s.captures[key] = e
	}
	s.mu.Unlock()
	// The profiling run happens outside the suite lock so independent
	// captures proceed in parallel; once.Do makes racing callers for
	// the same cell share one run.
	e.once.Do(func() { e.cp, e.err = Profile(s.Opts, name, rate) })
	return e.cp, e.err
}

// Captures returns every successfully profiled capture in sorted
// cache-key order — a deterministic order no matter which workers
// profiled which cells.
func (s *Suite) Captures() []*Capture {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Capture
	for _, key := range order.SortedKeys(s.captures) {
		if e := s.captures[key]; e.cp != nil {
			out = append(out, e.cp)
		}
	}
	return out
}

// Label names a capture the way exports do.
func (c *Capture) Label() string {
	return fmt.Sprintf("%s@%s", c.Workload, RateName(c.Rate))
}

// Traces returns every cached capture's telemetry stream, labeled
// "workload@rate" in Captures order, so exports built from it are
// byte-identical at any Parallel setting.
func (s *Suite) Traces() []telemetry.Labeled {
	var out []telemetry.Labeled
	for _, cp := range s.Captures() {
		if cp.Telemetry == nil {
			continue
		}
		out = append(out, telemetry.Labeled{Label: cp.Label(), Tracer: cp.Telemetry})
	}
	return out
}

// Warm profiles every (workload, rate) cell on the worker pool, so a
// following analysis loop — which must visit captures in presentation
// order to render deterministic rows — finds them all cached. This is
// how the Suite-backed experiments (Table IV, Fig. 5, the epoch
// sweep) parallelize without reordering a single output byte.
func (s *Suite) Warm(experiment string, names []string, rates []int) error {
	jobs := make([]runner.Job[struct{}], 0, len(names)*len(rates))
	for _, name := range names {
		for _, rate := range rates {
			jobs = append(jobs, runner.Job[struct{}]{
				Name: fmt.Sprintf("%s/%s@%s", experiment, name, RateName(rate)),
				Run: func() (struct{}, error) {
					_, err := s.Capture(name, rate)
					return struct{}{}, err
				},
			})
		}
	}
	_, err := runCells(s.Opts, experiment, jobs)
	return err
}

// runCells fans an experiment's independent cell jobs out on the
// bounded worker pool and reassembles results in submission order.
func runCells[T any](opts Options, experiment string, jobs []runner.Job[T]) ([]T, error) {
	out, st, err := runner.Run(runner.Config{Workers: opts.Parallel, NowNS: opts.NowNS}, jobs)
	if opts.OnRunnerStats != nil {
		opts.OnRunnerStats(experiment, st)
	}
	return out, err
}
