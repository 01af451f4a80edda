// Package core orchestrates full experiments: build the region, generate
// the calibrated workload, drive the Nova scheduler and DRS through a
// discrete-event simulation of the observation window, and collect the
// telemetry the paper's figures are computed from.
//
// The sampler writes host and VM metrics straight into the telemetry store,
// through per-series handles, using the Table 4 metric names. The HTTP
// exporter → scraper path is the same data plane and is exercised separately
// (internal/scrape tests and examples/telemetry-pipeline); sampling
// in-process keeps 30-day runs fast.
package core

import (
	"errors"
	"slices"
	"strings"

	"sapsim/internal/analysis"
	"sapsim/internal/drs"
	"sapsim/internal/engprof"
	"sapsim/internal/esx"
	"sapsim/internal/events"
	"sapsim/internal/exporter"
	"sapsim/internal/nova"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
	"sapsim/internal/workload"
)

// MetricHostDiskPct is a derived convenience metric (percentage form of the
// Table 4 diskspace gauge) recorded alongside the catalog metrics so that
// heatmap analysis does not need per-node capacity lookups.
const MetricHostDiskPct = "vrops_hostsystem_diskspace_usage_percentage"

// Config describes one experiment.
type Config struct {
	// Seed drives all randomness; equal seeds give equal runs.
	Seed uint64
	// Scale shrinks the studied region (1.0 ≈ 1,823 hypervisors).
	Scale float64
	// VMs is the target initial population (the paper's region: ~48,000).
	VMs int
	// Days is the observation window (the paper: 30).
	Days int
	// SampleEvery is the host telemetry interval (production: 30–300 s).
	SampleEvery sim.Time
	// VMSampleEvery is the per-VM telemetry interval; per-VM series
	// dominate memory so they default coarser.
	VMSampleEvery sim.Time
	// Scheduler configures the Nova pipeline.
	Scheduler nova.Config
	// ESX configures hypervisor policy (overcommit etc.).
	ESX esx.Config
	// DRS enables intra-BB rebalancing at DRSEvery intervals.
	DRS      bool
	DRSEvery sim.Time
	// CrossBB enables the external cross-BB rebalancer (daily).
	CrossBB bool
	// RecordVMMetrics enables per-VM series (needed for Fig. 14).
	RecordVMMetrics bool
	// HolisticNodeFit appends the NodeFitFilter (wired to the live
	// fleet), collapsing the two-layer BB→node split into one node-aware
	// decision — the Sec. 7 "holistic scheduling" ablation (A7).
	HolisticNodeFit bool
	// ResizeRate is the expected number of resize operations per VM over
	// a 30-day window (resize is one of the dataset's scheduling-relevant
	// events). Zero disables resizes.
	ResizeRate float64
	// ArrivalPhases modulate the generated churn arrival process (demand
	// surges, lulls, flavor-mix shifts). Empty keeps the base workload —
	// and its RNG draw sequence — byte-identical.
	ArrivalPhases []workload.Phase
	// Injectors are scenario hooks invoked after the simulation is
	// assembled but before the engine runs; each may schedule
	// operational events (host failures, drains, resize waves) onto the
	// engine. See internal/scenario for the declarative layer on top.
	Injectors []Injector
}

// DefaultConfig returns a laptop-scale replica of the paper's setup: 5% of
// the region, 30 days, 5-minute host sampling.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:            seed,
		Scale:           0.05,
		VMs:             2400,
		Days:            30,
		SampleEvery:     5 * sim.Minute,
		VMSampleEvery:   sim.Hour,
		Scheduler:       nova.DefaultConfig(),
		ESX:             esx.DefaultConfig(),
		DRS:             true,
		DRSEvery:        sim.Hour,
		RecordVMMetrics: true,
		ResizeRate:      0.03,
	}
}

// Result carries everything an analysis needs after a run.
type Result struct {
	Config    Config
	Region    *topology.Region
	Fleet     *esx.Fleet
	Store     *telemetry.Store
	Scheduler *nova.Scheduler

	// VMs is every VM instance that entered the system (placed or not).
	VMs []*vmmodel.VM
	// Lifetimes holds the planned lifetime per VM (the paper collected
	// lifetimes retrospectively; we know them exactly).
	Lifetimes []analysis.LifetimeRecord
	// PlacementFailures counts NoValidHost outcomes.
	PlacementFailures int
	// DRSMigrations and CrossBBMoves count rebalancing activity.
	DRSMigrations int
	CrossBBMoves  int
	// DRS is the intra-BB rebalancer instance (nil when Config.DRS is
	// off); injectors may attach observation hooks to it.
	DRS *drs.DRS
	// Resizes counts completed resize operations.
	Resizes int
	// Events is the scheduling-relevant event stream (Sec. 4).
	Events *events.Log
	// SchedStats snapshots the scheduler counters at the end.
	SchedStats nova.Stats
	// Profile is the engine self-profiler's per-phase wall-time and work
	// attribution for this cell, refreshed on every Result call. Its
	// values are wall-clock measurements — deliberately excluded from the
	// golden artifact set — while its collection never influences event
	// order (see internal/engprof).
	Profile *engprof.Profile
}

// Horizon reports the simulated window.
func (c Config) Horizon() sim.Time { return sim.Time(c.Days) * sim.Day }

// Validate sanity-checks the configuration.
func (c Config) Validate() error {
	if c.Scale <= 0 {
		return errors.New("core: non-positive scale")
	}
	if c.VMs <= 0 {
		return errors.New("core: non-positive VM count")
	}
	if c.Days <= 0 {
		return errors.New("core: non-positive days")
	}
	if c.SampleEvery <= 0 {
		return errors.New("core: non-positive sample interval")
	}
	if c.RecordVMMetrics && c.VMSampleEvery <= 0 {
		return errors.New("core: non-positive VM sample interval")
	}
	return nil
}

// Run executes the experiment in one blocking call: NewSimulation driven
// straight to the horizon. The step-driven Simulation form is the primary
// API; Run remains for callers that only need the finished Result.
func Run(cfg Config) (*Result, error) {
	s, err := NewSimulation(cfg, Hooks{})
	if err != nil {
		return nil, err
	}
	if err := s.AdvanceTo(cfg.Horizon(), nil); err != nil {
		return nil, err
	}
	return s.Result(), nil
}

// sortedLive returns the live VMs in ID order: the deterministic view of a
// map that resize picks index and injectors iterate.
func sortedLive(live map[vmmodel.ID]*vmmodel.VM) []*vmmodel.VM {
	out := make([]*vmmodel.VM, 0, len(live))
	for _, vm := range live {
		out = append(out, vm)
	}
	slices.SortFunc(out, func(a, b *vmmodel.VM) int { return strings.Compare(string(a.ID), string(b.ID)) })
	return out
}

// hostSchema and vmSchema are the two measurements' fixed field lists.
var (
	hostSchema = []string{
		exporter.MetricHostCPUUtil, exporter.MetricHostMemUsage, exporter.MetricHostNetTx,
		exporter.MetricHostNetRx, exporter.MetricHostDiskUsage, MetricHostDiskPct,
		exporter.MetricHostCPUCont, exporter.MetricHostCPUReady,
	}
	vmSchema = []string{exporter.MetricVMCPURatio, exporter.MetricVMMemRatio}
)

// sampler writes telemetry through series handles: an entity's series (8 per
// host, 2 per VM) are resolved at its first sample, and every tick queues
// its values behind them and commits the sweep with one Store.AppendAll.
// Entities first sampled in one sweep are resolved by one Store.Refs call,
// in node-ID / VM-ID order, because series creation order is observable:
// Select and Dump return it. The order of a sweep's writes is not: each
// goes to a distinct series.
type sampler struct {
	res *Result
	cfg Config
	// fail takes a rejected (out-of-order) append to the engine's error path.
	fail func(error)
	// Handles in schema order; a VM's are under the labels, flavor included,
	// of its first sample. Keyed by pointer: a host or VM is one object for
	// the whole run, and a pointer hashes cheaper than its ID string.
	hostRefs map[*esx.Host][]telemetry.SeriesRef
	vmRefs   map[*vmmodel.VM][]telemetry.SeriesRef
	total    []telemetry.SeriesRef // openstack_compute_instances_total
	// refs and vals queue the current sweep's samples; reused across sweeps.
	refs []telemetry.SeriesRef
	vals []float64
	// prof receives appended-sample counts: the sampling phases' work-unit
	// proxy (each append is one sample landing in the store).
	prof *engprof.Collector
	// feed passes each host's contention to the scheduler, which only a
	// ContentionWeigher reads.
	feed bool
}

func newSampler(res *Result, cfg Config, prof *engprof.Collector, fail func(error)) *sampler {
	return &sampler{
		res:      res,
		cfg:      cfg,
		fail:     fail,
		hostRefs: make(map[*esx.Host][]telemetry.SeriesRef),
		vmRefs:   make(map[*vmmodel.VM][]telemetry.SeriesRef),
		prof:     prof,
		feed:     weighsContention(cfg),
	}
}

// weighsContention reports whether the scheduler's weighers read the per-BB
// contention view, which host samples then feed.
func weighsContention(cfg Config) bool {
	for _, w := range cfg.Scheduler.Weighers {
		if _, ok := w.(nova.ContentionWeigher); ok {
			return true
		}
	}
	return false
}

// put queues one entity's values behind its handles, in schema order.
func (s *sampler) put(refs []telemetry.SeriesRef, vals ...float64) {
	s.refs = append(s.refs, refs...)
	s.vals = append(s.vals, vals...)
}

// commit writes the queued sweep in one batch and empties the queue.
func (s *sampler) commit(now sim.Time) {
	s.fail(s.res.Store.AppendAll(now, s.refs, s.vals))
	s.refs, s.vals = s.refs[:0], s.vals[:0]
}

func (s *sampler) sampleHosts(now sim.Time) {
	fleet := s.res.Fleet
	// First sampled this tick: every host in service at t=0, later those a
	// capacity expansion delivers or a drain releases.
	var fresh []*esx.Host
	var sets []telemetry.Labels
	for _, h := range fleet.Hosts() {
		if h.Node.Maintenance || s.hostRefs[h] != nil {
			continue
		}
		fresh = append(fresh, h)
		sets = append(sets, telemetry.MustLabels("hostsystem", string(h.Node.ID),
			"cluster", string(h.Node.BB.ID), "datacenter", h.Node.Datacenter().Name))
	}
	refs := s.res.Store.Refs(hostSchema, sets)
	for i, h := range fresh {
		s.hostRefs[h] = refs[i*len(hostSchema):][:len(hostSchema)]
	}
	var ops int64
	for _, h := range fleet.Hosts() {
		if h.Node.Maintenance {
			continue
		}
		m := h.Snapshot(now, s.cfg.SampleEvery)
		s.put(s.hostRefs[h], m.CPUUtilPct, m.MemUsagePct, m.TxKbps, m.RxKbps,
			m.StorageUsedGB, m.StoragePct(h.Node.Capacity.StorageGB), m.CPUContentionPct, m.CPUReadyMillis)
		ops += int64(len(hostSchema))

		if s.feed {
			s.res.Scheduler.SetContention(h.Node.BB.ID, m.CPUContentionPct)
		}
	}
	s.commit(now)
	if s.prof != nil {
		s.prof.AddOps(engprof.PhaseHostSample, ops)
	}
}

// sampleVMs samples every resident VM, host by host in node-ID order, and
// records live as the instance count. Every live VM is resident on exactly
// one host and every resident is live, so the walk covers the live set. A
// VM's usage is read from its host's snapshot at now, throttled by that
// snapshot's contention (Host.EachVMUsage).
func (s *sampler) sampleVMs(now sim.Time, live int) {
	// First sampled this tick: queued behind unresolved handles, then
	// resolved in ID order and patched into the queue at offset at.
	type firstSample struct {
		vm *vmmodel.VM
		at int
	}
	var fresh []firstSample
	var ops int64
	for _, h := range s.res.Fleet.Hosts() {
		// A cache hit when the VM sweep shares an instant with the host sweep.
		h.EachVMUsage(now, s.cfg.VMSampleEvery, func(vm *vmmodel.VM, u esx.VMUsage) {
			refs := s.vmRefs[vm]
			if refs == nil {
				fresh = append(fresh, firstSample{vm, len(s.refs)})
				refs = make([]telemetry.SeriesRef, len(vmSchema))
			}
			s.put(refs, u.CPUUsageRatio, u.MemUsageRatio)
			ops += int64(len(vmSchema))
		})
	}
	slices.SortFunc(fresh, func(a, b firstSample) int { return strings.Compare(string(a.vm.ID), string(b.vm.ID)) })
	sets := make([]telemetry.Labels, len(fresh))
	for i, f := range fresh {
		sets[i] = telemetry.MustLabels("virtualmachine", string(f.vm.ID),
			"flavor", f.vm.Flavor.Name, "project", f.vm.Project)
	}
	refs := s.res.Store.Refs(vmSchema, sets)
	for i, f := range fresh {
		s.vmRefs[f.vm] = refs[i*len(vmSchema):][:len(vmSchema)]
		copy(s.refs[f.at:], s.vmRefs[f.vm])
	}
	if s.total == nil {
		s.total = s.res.Store.Refs([]string{exporter.MetricInstancesTotal}, []telemetry.Labels{{}})
	}
	s.put(s.total, float64(live))
	s.commit(now)
	if s.prof != nil {
		s.prof.AddOps(engprof.PhaseVMSample, ops+1)
	}
}
