package scenario

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"sapsim/internal/analysis"
	"sapsim/internal/core"
	"sapsim/internal/events"
	"sapsim/internal/exporter"
)

// Variant is one scheduler/policy configuration under comparison. Apply
// mutates a per-run copy of the base config; a nil Apply is the base config
// unchanged.
type Variant struct {
	Name        string
	Description string
	Apply       func(*core.Config)
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
	// Fingerprint, when set, runs over each finished cell's Result and its
	// output lands in Run.Digests — e.g. sapsim.ArtifactDigests for
	// full artifact-set diffing between cells. It is invoked from the
	// worker goroutines concurrently and must be safe for concurrent use.
	Fingerprint func(*core.Result) (map[string]string, error)
	// OnResult observes each successfully finished cell's full Result. It
	// is invoked from the worker goroutines concurrently and must be safe
	// for concurrent use.
	OnResult func(Key, *core.Result)
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

// Sweep executes the matrix across a bounded worker pool, running each
// cell to its horizon on its own engine, and returns the runs in
// deterministic scenario-major order.
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
	type job struct {
		sc      *Scenario
		variant Variant
		seed    uint64
	}
	var jobs []job
	for _, sc := range scenarios {
		for _, v := range variants {
			for _, seed := range seeds {
				jobs = append(jobs, job{sc: sc, variant: v, seed: seed})
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
	execute := func(i int) {
		j := jobs[i]
		cfg := m.Base
		cfg.Seed = j.seed
		cfg = j.sc.Configure(cfg)
		if j.variant.Apply != nil {
			j.variant.Apply(&cfg)
		}
		key := Key{Scenario: j.sc.Name, Variant: j.variant.Name, Seed: j.seed}
		res, err := core.Run(cfg)
		if err != nil {
			runs[i] = Run{Key: key, Err: err.Error()}
			return
		}
		run := Run{Key: key, Metrics: Extract(res)}
		if m.OnResult != nil {
			m.OnResult(key, res)
		}
		if m.Fingerprint != nil {
			digests, ferr := m.Fingerprint(res)
			if ferr != nil {
				run.Err = "fingerprint: " + ferr.Error()
			}
			run.Digests = digests
		}
		runs[i] = run
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
