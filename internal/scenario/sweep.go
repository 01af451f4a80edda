package scenario

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"sapsim/internal/analysis"
	"sapsim/internal/core"
	"sapsim/internal/events"
	"sapsim/internal/exporter"
	"sapsim/internal/sim"
	"sapsim/internal/snapshot"
)

// Variant is one scheduler/policy configuration under comparison. Apply
// mutates a per-run copy of the base config; a nil Apply is the base config
// unchanged.
type Variant struct {
	Name  string
	Apply func(*core.Config)
}

// Matrix declares a sweep: every (scenario × variant × seed) combination
// runs once.
type Matrix struct {
	// Base is the config template; per-run copies get the scenario,
	// variant, and seed applied.
	Base core.Config
	// Scenarios to sweep; the first is the comparative baseline.
	// Defaults to {Baseline()} when empty.
	Scenarios []*Scenario
	// Variants to sweep; defaults to the unchanged base config.
	Variants []Variant
	// Seeds to sweep; defaults to {Base.Seed}.
	Seeds []uint64
	// Workers bounds the worker pool; 0 uses GOMAXPROCS. Runs are fully
	// isolated (own engine, fleet, telemetry store), so the worker count
	// never changes results or their order.
	Workers int
	// Branch enables warm-forked execution: cells sharing a (variant, seed)
	// pair whose scenarios do not reshape the arrival process run their
	// common steady-state prefix once, snapshot it, and fork per-scenario
	// branches from the warm state instead of replaying the prefix per cell.
	// The prefix ends at the earliest declared first effect across the
	// group's scenarios (see the injectors' FirstEffect methods).
	//
	// Branching preserves the simulation up to the fork point exactly; after
	// it, events a branch injects tie-break after same-instant events
	// already in flight (they carry later sequence numbers than a cold run
	// would assign), so a branched cell can differ from its cold twin in
	// exact same-nanosecond orderings. TestSweepBranchedMatchesCold pins
	// equal Runs to the cold sweep for its matrix; there is no general
	// byte-identity guarantee — leave Branch off when cells must be
	// byte-identical to cold runs.
	Branch bool
	// Context cancels the sweep: in-flight cells unwind within one engine
	// tick and pending cells never start; both record the context's error
	// in their Run.Err slot, so the scenario-major result order survives
	// cancellation intact. Nil runs to completion.
	Context context.Context
	// OnCell observes cell lifecycle transitions and live per-cell
	// progress. It is invoked from the worker goroutines concurrently and
	// must be safe for concurrent use; it must not block (it runs on the
	// cells' engine hot loops).
	OnCell func(CellUpdate)
	// Fingerprint, when set, runs over each finished cell's Result and its
	// output lands in Run.Digests — e.g. sapsim.ArtifactDigests for
	// full artifact-set diffing between cells. It is invoked from the
	// worker goroutines concurrently and must be safe for concurrent use.
	Fingerprint func(*core.Result) (map[string]string, error)
	// OnResult observes each successfully finished cell's full Result —
	// including its engine self-profile (Result.Profile) — before the
	// result is reduced to Metrics. Wall-clock-dependent consumers (the
	// profiler) hang off this hook precisely so the SweepResult itself
	// stays byte-identical across machines and worker counts. It is
	// invoked from the worker goroutines concurrently and must be safe
	// for concurrent use.
	OnResult func(Key, *core.Result)
}

// CellState is a sweep cell's lifecycle phase as reported to OnCell.
type CellState int

const (
	// CellStarted fires once when a worker picks the cell up.
	CellStarted CellState = iota
	// CellRunning fires on the cell's progress heartbeat.
	CellRunning
	// CellFinished fires once on successful completion.
	CellFinished
	// CellFailed fires once when the cell's run errors.
	CellFailed
	// CellCanceled fires once when the matrix context cancels the cell.
	CellCanceled
)

// String renders the state for progress output.
func (s CellState) String() string {
	switch s {
	case CellStarted:
		return "started"
	case CellRunning:
		return "running"
	case CellFinished:
		return "finished"
	case CellFailed:
		return "failed"
	case CellCanceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// CellUpdate is one OnCell notification.
type CellUpdate struct {
	Key   Key
	State CellState
	// Index is the cell's position in scenario-major order; Total the
	// matrix size.
	Index, Total int
	// Now/Horizon report simulated progress for CellRunning updates.
	Now, Horizon sim.Time
	// Err carries the failure or cancellation cause.
	Err string
}

// Key identifies one run of the matrix.
type Key struct {
	Scenario string
	Variant  string
	Seed     uint64
}

// Metrics are the headline artifacts extracted from one finished run, the
// basis of every scenario-vs-baseline comparison.
type Metrics struct {
	// LiveVMs counts VMs resident on hosts at the horizon.
	LiveVMs int
	// PackingMemPct / PackingVCPUPct are the fleet-wide allocation
	// efficiencies at the horizon (packing efficiency).
	PackingMemPct  float64
	PackingVCPUPct float64
	// AttemptsPerSchedule is (scheduled + retries) / scheduled — the
	// scheduling latency proxy: every retry is one more full
	// filter/weigh/claim round trip.
	AttemptsPerSchedule float64
	// PlacementFailures counts NoValidHost outcomes.
	PlacementFailures int
	// Migration activity.
	DRSMigrations int
	CrossBBMoves  int
	Evacuations   int
	EvacFailures  int
	Resizes       int
	// MeanContentionPct / MaxContentionPct summarize region-wide CPU
	// contention across the window.
	MeanContentionPct float64
	MaxContentionPct  float64
}

// Run is one finished cell of the matrix.
type Run struct {
	Key     Key
	Metrics Metrics
	// Digests holds the cell's artifact fingerprints (artifact ID →
	// SHA-256), populated when Matrix.Fingerprint is set.
	Digests map[string]string `json:",omitempty"`
	// Err is the run error, empty on success. A string (not error) so
	// results compare byte-for-byte across worker counts.
	Err string
}

// SweepResult holds every run in deterministic scenario-major order
// (scenario, then variant, then seed), independent of worker scheduling.
type SweepResult struct {
	Runs []Run
}

// ErrEmptyMatrix is returned when the matrix has nothing to run.
var ErrEmptyMatrix = errors.New("scenario: empty sweep matrix")

// Sweep executes the matrix across a bounded worker pool, driving each
// cell through its own step-driven core.Simulation (the engine loop behind
// the public Session API), and returns the runs in deterministic
// scenario-major order. Matrix.Context cancels in-flight cells mid-run;
// Matrix.OnCell streams live per-cell progress.
func Sweep(m Matrix) (*SweepResult, error) {
	scenarios := m.Scenarios
	if len(scenarios) == 0 {
		scenarios = []*Scenario{Baseline()}
	}
	variants := m.Variants
	if len(variants) == 0 {
		variants = []Variant{{Name: "default"}}
	}
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{m.Base.Seed}
	}
	type groupKey struct {
		variant int
		seed    uint64
	}
	var groups map[groupKey]*warmGroup
	if m.Branch {
		groups = make(map[groupKey]*warmGroup)
		for vi, v := range variants {
			for _, seed := range seeds {
				wcfg := m.Base
				wcfg.Seed = seed
				if v.Apply != nil {
					v.Apply(&wcfg)
				}
				horizon := wcfg.Horizon()
				prefix := horizon
				members := 0
				for _, sc := range scenarios {
					t, ok := warmPrefix(sc, horizon)
					if !ok {
						continue
					}
					members++
					if t < prefix {
						prefix = t
					}
				}
				// Fork strictly before the first effect: ambient events at
				// the effect instant (sampling ticks land on the same round
				// timestamps injections use) must still be pending so the
				// branch orders against them the way a cold run would.
				prefix--
				// A warm prefix pays off only when at least two cells share
				// it and it covers a real slice of the run.
				if members < 2 || prefix <= 0 || prefix >= horizon {
					continue
				}
				groups[groupKey{vi, seed}] = &warmGroup{at: prefix, cfg: wcfg}
			}
		}
	}

	type job struct {
		sc      *Scenario
		variant Variant
		seed    uint64
		// group, when non-nil, is the warm-fork group this cell branches
		// from (Matrix.Branch).
		group *warmGroup
	}
	var jobs []job
	for _, sc := range scenarios {
		for vi, v := range variants {
			for _, seed := range seeds {
				j := job{sc: sc, variant: v, seed: seed}
				if g := groups[groupKey{vi, seed}]; g != nil {
					if _, ok := warmPrefix(sc, g.cfg.Horizon()); ok {
						j.group = g
					}
				}
				jobs = append(jobs, j)
			}
		}
	}
	if len(jobs) == 0 {
		return nil, ErrEmptyMatrix
	}

	workers := m.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	runs := make([]Run, len(jobs))
	notify := func(u CellUpdate) {
		if m.OnCell != nil {
			m.OnCell(u)
		}
	}
	execute := func(i int) {
		j := jobs[i]
		cfg := m.Base
		cfg.Seed = j.seed
		cfg = j.sc.Configure(cfg)
		if j.variant.Apply != nil {
			j.variant.Apply(&cfg)
		}
		key := Key{Scenario: j.sc.Name, Variant: j.variant.Name, Seed: j.seed}
		cell := CellUpdate{Key: key, Index: i, Total: len(jobs), Horizon: cfg.Horizon()}

		// A canceled matrix drains without starting further cells; the
		// result slot still records why this cell has no metrics.
		if m.Context != nil && m.Context.Err() != nil {
			runs[i] = Run{Key: key, Err: m.Context.Err().Error()}
			cell.State, cell.Err = CellCanceled, runs[i].Err
			notify(cell)
			return
		}

		// Each cell runs on its own step-driven engine loop — the same
		// core.Simulation that backs the public Session API — giving the
		// sweep per-cell context cancellation (checked before every engine
		// event) and a live per-tick progress stream.
		var hooks core.Hooks
		if m.OnCell != nil {
			total := len(jobs)
			horizon := cfg.Horizon()
			hooks.OnTick = func(now sim.Time) {
				notify(CellUpdate{Key: key, Index: i, Total: total,
					State: CellRunning, Now: now, Horizon: horizon})
			}
		}
		var interrupt func() error
		if m.Context != nil {
			interrupt = m.Context.Err
		}
		build := func() (*core.Simulation, error) { return core.NewSimulation(cfg, hooks) }
		if g := j.group; g != nil {
			// First cell of the group to arrive runs the shared prefix and
			// snapshots it; the rest block here until the snapshot exists.
			g.once.Do(func() {
				warm, err := core.NewSimulation(g.cfg, core.Hooks{})
				if err == nil {
					err = warm.AdvanceTo(g.at, interrupt)
				}
				if err == nil {
					g.snap, err = warm.Snapshot()
				}
				g.err = err
			})
			// A failed warm prefix (an unowned event from a custom injector,
			// or cancellation) degrades the cell to a cold run.
			if g.err == nil {
				bcfg := g.cfg
				if len(j.sc.Injections) > 0 {
					bcfg.Injectors = append(append([]core.Injector{}, g.cfg.Injectors...), j.sc.Injections...)
				}
				cfg = bcfg
				build = func() (*core.Simulation, error) {
					return core.RestoreSimulation(bcfg, hooks, g.snap)
				}
			}
		}
		simulation, err := build()
		if err == nil {
			cell.State = CellStarted
			notify(cell)
			err = simulation.AdvanceTo(cfg.Horizon(), interrupt)
		}
		if err != nil {
			runs[i] = Run{Key: key, Err: err.Error()}
			cell.Err = runs[i].Err
			if m.Context != nil && errors.Is(err, m.Context.Err()) {
				cell.State = CellCanceled
			} else {
				cell.State = CellFailed
			}
			notify(cell)
			return
		}
		run := Run{Key: key, Metrics: Extract(simulation.Result())}
		if m.OnResult != nil {
			m.OnResult(key, simulation.Result())
		}
		if m.Fingerprint != nil {
			digests, ferr := m.Fingerprint(simulation.Result())
			if ferr != nil {
				run.Err = "fingerprint: " + ferr.Error()
			}
			run.Digests = digests
		}
		runs[i] = run
		cell.State, cell.Now = CellFinished, cfg.Horizon()
		notify(cell)
	}

	if workers == 1 {
		for i := range jobs {
			execute(i)
		}
		return &SweepResult{Runs: runs}, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				execute(i)
			}
		}()
	}
	wg.Wait()
	return &SweepResult{Runs: runs}, nil
}

// warmGroup is the shared steady-state prefix of one (variant, seed) slice
// of a branched sweep: the first cell to execute runs the prefix once and
// snapshots it; every other cell of the group forks from the snapshot.
type warmGroup struct {
	once sync.Once
	// at is the fork point: the earliest first effect across the group's
	// scenarios.
	at sim.Time
	// cfg is the prefix configuration — base plus variant and seed, without
	// any scenario injections.
	cfg  core.Config
	snap *snapshot.Snapshot
	err  error
}

// firstEffecter is implemented by injectors that declare the simulated time
// of their earliest operational effect, enabling warm-forked sweeps.
type firstEffecter interface{ FirstEffect() sim.Time }

// warmPrefix reports how long the scenario's run is indistinguishable from
// the injection-free baseline: the minimum declared first effect across its
// injections (the horizon when it has none). ok is false when the scenario
// cannot fork from a shared prefix — it reshapes the arrival process
// (phases change workload generation from t=0), or carries an injection
// without a declared first effect or with one at t<=0 (inject-time
// topology mutation).
func warmPrefix(sc *Scenario, horizon sim.Time) (sim.Time, bool) {
	if len(sc.Phases) > 0 {
		return 0, false
	}
	t := horizon
	for _, inj := range sc.Injections {
		fe, ok := inj.(firstEffecter)
		if !ok {
			return 0, false
		}
		at := fe.FirstEffect()
		if at <= 0 {
			return 0, false
		}
		if at < t {
			t = at
		}
	}
	return t, true
}

// Extract computes the headline metrics from a finished run.
func Extract(res *core.Result) Metrics {
	m := Metrics{
		PlacementFailures: res.PlacementFailures,
		DRSMigrations:     res.DRSMigrations,
		CrossBBMoves:      res.CrossBBMoves,
		Resizes:           res.Resizes,
	}
	counts := res.Events.CountByType()
	m.Evacuations = counts[events.Evacuate]
	m.EvacFailures = counts[events.EvacuateFailed]

	packing := analysis.Packing(res.Fleet)
	m.LiveVMs = packing.VMs
	m.PackingMemPct = packing.MemAllocPct
	m.PackingVCPUPct = packing.VCPUAllocPct

	if s := res.SchedStats; s.Scheduled > 0 {
		m.AttemptsPerSchedule = float64(s.Scheduled+s.Retries) / float64(s.Scheduled)
	}

	days := analysis.DailyPooled(res.Store, exporter.MetricHostCPUCont, res.Config.Days)
	var sum float64
	n := 0
	for _, d := range days {
		if d.N == 0 {
			continue
		}
		sum += d.Mean
		n++
		if d.Max > m.MaxContentionPct {
			m.MaxContentionPct = d.Max
		}
	}
	if n > 0 {
		m.MeanContentionPct = sum / float64(n)
	}
	return m
}
