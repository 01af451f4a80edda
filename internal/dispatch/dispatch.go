// Package dispatch distributes sweep matrices across machines: a durable
// job queue backed by a JSON-lines journal (write-ahead log), an HTTP
// dispatcher that books cells out to workers and collects per-cell metrics
// and artifact digests, and a worker that runs each booked cell through the
// step-driven sapsim Session, renewing its lease with heartbeats that carry
// the worker's trace spans.
//
// The shape follows the SIMQ dispatcher/simd split: the dispatcher owns
// queue state and survives restarts (Resume replays the journal and
// re-queues cells that were in flight when the process died); workers are
// stateless bookers that can appear, crash, and reconnect freely — a cell
// whose lease expires is re-booked to the next worker that asks, which runs
// it again from t=0.
//
// Every cell is deterministic per (config, scenario, variant, seed), so a
// sweep dispatched across N workers, killed, and resumed from the journal
// merges into a report and artifact-digest set byte-identical to a
// single-process scenario.Sweep of the same matrix (test-enforced).
//
// Queue states: queued → booked → running → done | failed, with
// lease-expiry edges booked/running → queued.
//
// Completed cells deliver more than digests: the completion carries every
// artifact body and the cell's engine profile, and the dispatcher stores
// them in its content-addressed store (internal/artifact, under the journal
// directory) before the result takes effect. The store keeps one copy per
// digest, so the static tables identical across cells land once. The
// dispatcher mounts the report tree over the collected bodies —
// artifact.Bundle, the same value WriteBundle writes to disk — at /bundle,
// and Resume re-verifies the store against the journal, re-queueing any
// cell whose blobs went missing, truncated, or corrupt.
//
// Wire protocol (JSON over HTTP; GET /artifact serves a blob raw):
//
//	POST /book     {worker, capacity}        → 200 job+base config | 204 none free | 410 drained
//	POST /progress {worker, job, attempt, spans}     → 200 (lease renewed) | 400 malformed | 409 lease lost
//	POST /complete {worker, job, attempt, run, bodies, profile, spans}
//	               → 200 | 400 body not named by run or not hashing to its digest
//	                 | 409 lease lost | 412 a digest with neither body nor blob
//	POST /release  {worker, job, attempt}             → 200 (cell re-queued) | 409 lease lost
//	GET  /artifact/{digest} → 200 body (digest-verified) | 404
//	GET  /state    → queue snapshot
//	GET  /result   → merged SweepResult (425 until drained)
//	GET  /bundle/{path} → one file of the report bundle, as -bundle DIR writes
//	                 it (/bundle/ is index.html) | 425 not there yet (a
//	                 sweep-wide file before the drain, an in-flight cell's
//	                 body) | 404 never will be (unknown path, failed cell)
package dispatch

import (
	"fmt"
	"strconv"
	"strings"

	"sapsim/internal/core"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
)

// FormatVersion versions the journal: its header carries it, and replay
// refuses a journal of any other version (history lives in CHANGES.md).
const FormatVersion = 6

// ConfigSpec is the serializable subset of core.Config — the knobs the
// sweep CLIs vary. Config reconstructs a full core.Config from it on the
// worker side; scheduler/ESX policy beyond the defaults travels by variant
// name, and operational events by scenario name, so a ConfigSpec plus a
// (scenario, variant, seed) key restarts any cell from scratch
// deterministically.
type ConfigSpec struct {
	Seed            uint64
	Scale           float64
	VMs             int
	Days            int
	SampleEvery     sim.Time
	VMSampleEvery   sim.Time
	DRS             bool
	DRSEvery        sim.Time
	CrossBB         bool
	RecordVMMetrics bool
	HolisticNodeFit bool
	ResizeRate      float64
}

// SpecOf captures the serializable knobs of a config. Injectors, arrival
// phases, and non-default scheduler/ESX policy are not captured — those
// travel as scenario and variant names and are re-applied by the worker.
func SpecOf(cfg core.Config) ConfigSpec {
	return ConfigSpec{
		Seed:            cfg.Seed,
		Scale:           cfg.Scale,
		VMs:             cfg.VMs,
		Days:            cfg.Days,
		SampleEvery:     cfg.SampleEvery,
		VMSampleEvery:   cfg.VMSampleEvery,
		DRS:             cfg.DRS,
		DRSEvery:        cfg.DRSEvery,
		CrossBB:         cfg.CrossBB,
		RecordVMMetrics: cfg.RecordVMMetrics,
		HolisticNodeFit: cfg.HolisticNodeFit,
		ResizeRate:      cfg.ResizeRate,
	}
}

// Config reconstructs the full core.Config: default scheduler and ESX
// policy with the spec's knobs applied. Both the single-process reference
// path and the dispatched path build cell configs through here, which is
// what makes the byte-identity guarantee hold.
func (s ConfigSpec) Config() core.Config {
	cfg := core.DefaultConfig(s.Seed)
	cfg.Scale = s.Scale
	cfg.VMs = s.VMs
	cfg.Days = s.Days
	cfg.SampleEvery = s.SampleEvery
	cfg.VMSampleEvery = s.VMSampleEvery
	cfg.DRS = s.DRS
	cfg.DRSEvery = s.DRSEvery
	cfg.CrossBB = s.CrossBB
	cfg.RecordVMMetrics = s.RecordVMMetrics
	cfg.HolisticNodeFit = s.HolisticNodeFit
	cfg.ResizeRate = s.ResizeRate
	return cfg
}

// Spec is the serializable form of a sweep matrix: the base config knobs
// plus scenario/variant names and seeds. It is the journal header — the
// single source a Resume rebuilds the whole queue from.
type Spec struct {
	Base      ConfigSpec
	Scenarios []string
	Variants  []string
	Seeds     []uint64
	// CheckpointEvery is the simulated-time stride workers step a cell in,
	// rounded up to whole SampleEvery ticks (default DefaultCheckpoint).
	// Each stride is one "run" span, shipped on the next heartbeat: the
	// stride is how a running cell's progress reaches the journal and the
	// trace.
	CheckpointEvery sim.Time
}

// ParseSpec assembles a sweep spec from the CLI matrix flags shared by
// cmd/sweep and cmd/dispatchd: empty scenarios = all builtin, variants
// "all" = every builtin, comma-separated seeds. Keeping this expansion in
// one place is part of what keeps the in-process and dispatched paths
// agreeing cell for cell.
func ParseSpec(base core.Config, scenariosCSV, variantsCSV, seedsCSV string, checkpointEvery sim.Time) (Spec, error) {
	spec := Spec{Base: SpecOf(base), CheckpointEvery: checkpointEvery}
	if scenariosCSV == "" {
		for _, sc := range scenario.Builtin() {
			spec.Scenarios = append(spec.Scenarios, sc.Name)
		}
	} else {
		spec.Scenarios = splitCSV(scenariosCSV)
	}
	if variantsCSV == "all" {
		for _, v := range scenario.BuiltinVariants() {
			spec.Variants = append(spec.Variants, v.Name)
		}
	} else {
		spec.Variants = splitCSV(variantsCSV)
	}
	for _, s := range splitCSV(seedsCSV) {
		seed, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("dispatch: bad seed %q: %w", s, err)
		}
		spec.Seeds = append(spec.Seeds, seed)
	}
	spec.normalize()
	return spec, spec.Validate()
}

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// normalize applies the same defaulting scenario.Sweep applies to an empty
// matrix, so spec expansion and in-process expansion agree cell for cell.
func (s *Spec) normalize() {
	if len(s.Scenarios) == 0 {
		s.Scenarios = []string{scenario.Baseline().Name}
	}
	if len(s.Variants) == 0 {
		s.Variants = []string{"default"}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{s.Base.Seed}
	}
	if s.CheckpointEvery <= 0 {
		s.CheckpointEvery = DefaultCheckpoint
	}
}

// maxCells bounds a sweep's matrix, far above any sweep run so far. A
// journal header is outside input to Resume, and an unbounded seed list
// would expand into jobs by the hundred for every byte it takes.
const maxCells = 1 << 16

// Validate checks that every scenario and variant name resolves against
// the builtin libraries, that no scenario, variant or seed repeats — a
// repeat would run the same cell twice under one key — and that the matrix
// has at most maxCells cells.
func (s Spec) Validate() error {
	if len(s.Scenarios) == 0 || len(s.Variants) == 0 || len(s.Seeds) == 0 {
		return fmt.Errorf("dispatch: empty sweep spec")
	}
	for _, name := range s.Scenarios {
		if _, err := scenario.ByName(name); err != nil {
			return fmt.Errorf("dispatch: %w", err)
		}
	}
	for _, name := range s.Variants {
		if _, err := scenario.VariantByName(name); err != nil {
			return fmt.Errorf("dispatch: %w", err)
		}
	}
	if err := unique("scenario", s.Scenarios); err != nil {
		return err
	}
	if err := unique("variant", s.Variants); err != nil {
		return err
	}
	// Scenarios and variants are unique builtins by now, so the product
	// cannot overflow.
	if cells := len(s.Scenarios) * len(s.Variants) * len(s.Seeds); cells > maxCells {
		return fmt.Errorf("dispatch: %d cells in the sweep matrix (max %d)", cells, maxCells)
	}
	return unique("seed", s.Seeds)
}

func unique[T comparable](what string, list []T) error {
	seen := make(map[T]bool, len(list))
	for _, v := range list {
		if seen[v] {
			return fmt.Errorf("dispatch: %s %v listed twice", what, v)
		}
		seen[v] = true
	}
	return nil
}

// Matrix expands the spec into the scenario.Matrix a single process would
// run — the reference the dispatched result must match byte for byte.
func (s Spec) Matrix() (scenario.Matrix, error) {
	if err := s.Validate(); err != nil {
		return scenario.Matrix{}, err
	}
	m := scenario.Matrix{Base: s.Base.Config(), Seeds: append([]uint64{}, s.Seeds...)}
	for _, name := range s.Scenarios {
		sc, _ := scenario.ByName(name)
		m.Scenarios = append(m.Scenarios, sc)
	}
	for _, name := range s.Variants {
		v, _ := scenario.VariantByName(name)
		m.Variants = append(m.Variants, v)
	}
	return m, nil
}

// Keys expands the spec into cell keys in scenario-major order — the job
// order of the queue and the run order of scenario.Sweep.
func (s Spec) Keys() []scenario.Key {
	var keys []scenario.Key
	for _, sc := range s.Scenarios {
		for _, v := range s.Variants {
			for _, seed := range s.Seeds {
				keys = append(keys, scenario.Key{Scenario: sc, Variant: v, Seed: seed})
			}
		}
	}
	return keys
}

// CellConfig builds the effective config of one cell exactly the way
// scenario.Sweep does: seed applied to the base, then the scenario's
// phases/injections, then the variant.
func (s Spec) CellConfig(key scenario.Key) (core.Config, error) {
	sc, err := scenario.ByName(key.Scenario)
	if err != nil {
		return core.Config{}, fmt.Errorf("dispatch: %w", err)
	}
	v, err := scenario.VariantByName(key.Variant)
	if err != nil {
		return core.Config{}, fmt.Errorf("dispatch: %w", err)
	}
	cfg := s.Base.Config()
	cfg.Seed = key.Seed
	cfg = sc.Configure(cfg)
	v.Apply(&cfg)
	return cfg, nil
}

// JobState is a queue cell's lifecycle phase.
type JobState int

const (
	// JobQueued awaits a worker.
	JobQueued JobState = iota
	// JobBooked is leased to a worker that has not reported progress yet.
	JobBooked
	// JobRunning has received at least one heartbeat.
	JobRunning
	// JobDone completed and carries a Run result.
	JobDone
	// JobFailed completed with a run error, or exhausted its booking
	// attempts.
	JobFailed
)

// String renders the state for logs and the journal.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobBooked:
		return "booked"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// jobStateFromString parses a journal state token.
func jobStateFromString(s string) (JobState, error) {
	for st := JobQueued; st <= JobFailed; st++ {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("dispatch: unknown job state %q", s)
}

// RunResult is a worker's completion report for one cell.
type RunResult struct {
	Metrics scenario.Metrics
	Digests map[string]string
	Err     string
}

// JobStatus is one queue cell as reported by Snapshot and /state.
type JobStatus struct {
	ID      int
	Key     scenario.Key
	State   string
	Worker  string `json:",omitempty"`
	Attempt int
	// Profile points at the completed cell's engine self-profile blob.
	Profile *BlobRef `json:",omitempty"`
	Err     string   `json:",omitempty"`
}
