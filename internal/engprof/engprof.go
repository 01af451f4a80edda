// Package engprof is the engine's always-on self-profiler: it attributes a
// cell's wall time and per-phase work counts to the engine phases that spent
// them — event dispatch bucketed by event owner, the scheduler's
// filter/weigh/claim pipeline, DRS scan and decide, telemetry sampling,
// injector firing, and snapshot encode.
//
// The design borrows the property production collectors (the telegraf
// vSphere input) have had for years: every collection cycle self-times its
// internal stages and exports those timings as first-class data, so a
// regression is attributable from the output alone, without a human
// attached to a live process with a profiler.
//
// Determinism: the profiler only ever *reads* the wall clock and writes the
// readings into counters no simulation code consults. It never touches the
// sim RNG, the event queue, or any decision input, so event order — and
// therefore every golden artifact digest — is unaffected by construction.
// Profile values themselves are wall-clock measurements and are naturally
// nondeterministic; they travel outside the golden artifact set.
//
// Overhead: the engine run loop pays exactly one monotonic-clock read per
// fired event (a delta chain: each reading closes the previous event's
// interval and opens the next), plus one owner-bucket lookup with a
// last-owner fast path. Sub-phases (scheduler, DRS) add a handful of reads
// per invocation of already-microsecond-scale operations. There are no
// allocations on any hot path after an owner's bucket exists.
//
// Allocation attribution: Go offers no free per-section allocator counters
// (runtime.MemStats is a stop-the-world read), so each phase carries an Ops
// counter of phase-specific work units — candidates filtered, samples
// appended, claims attempted, snapshots captured — that tracks that phase's
// allocation behavior by proxy. The units per phase are documented on the
// Phase constants.
//
// A Collector is NOT safe for concurrent use: it belongs to exactly one
// engine goroutine. Snapshot it with Profile() after (or between) runs.
package engprof

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// FormatVersion stamps serialized profiles; readers reject other versions
// rather than misattribute.
const FormatVersion = 1

// Phase is one attribution bucket. Top-level phases partition the engine's
// accounted wall time (they sum to AccountedNanos); nested phases are
// measured inside a top-level phase and provide detail without adding to
// the total.
type Phase uint8

const (
	// PhaseBuild is simulation assembly: topology, fleet, workload
	// generation, injector attach. Ops: VMs generated.
	PhaseBuild Phase = iota
	// PhaseArrive is VM arrival dispatch (owner core/arrive): the
	// scheduler round trip plus guest start. Ops: arrivals dispatched.
	PhaseArrive
	// PhaseDelete is VM deletion dispatch (owner core/delete).
	PhaseDelete
	// PhaseHostSample is the host telemetry sweep (owner core/tick/host).
	// Ops: samples appended to the store.
	PhaseHostSample
	// PhaseVMSample is the per-VM telemetry sweep (owner core/tick/vm).
	// Ops: samples appended to the store.
	PhaseVMSample
	// PhaseDRSTick is the intra-BB rebalance tick (owner core/tick/drs).
	PhaseDRSTick
	// PhaseCrossBB is the cross-BB rebalance tick (owner core/tick/cross).
	PhaseCrossBB
	// PhaseResize is resize-wave dispatch (owner core/tick/resize).
	PhaseResize
	// PhaseInject is injector firing (owners with the inj/ prefix):
	// host failures, drains, surges scheduled by scenarios.
	PhaseInject
	// PhaseOther collects events with owners no other phase claims
	// (custom injectors, test handlers).
	PhaseOther
	// PhaseSnapshotEncode is mid-run engine snapshot capture, measured by
	// core.Simulation.Snapshot between run segments. Ops: captures.
	PhaseSnapshotEncode

	// Nested phases: detail inside a top-level phase, excluded from the
	// AccountedNanos sum.

	// PhaseSchedFilter is the scheduler's candidate scan + filter chain
	// (nested in PhaseArrive/PhaseResize). Ops: candidates examined.
	PhaseSchedFilter
	// PhaseSchedWeigh is weigher ranking (nested). Ops: candidates ranked.
	PhaseSchedWeigh
	// PhaseSchedClaim is the claim/place retry loop (nested). Ops: claim
	// attempts (including retries).
	PhaseSchedClaim
	// PhaseDRSScan is DRS host-load collection (nested in PhaseDRSTick/
	// PhaseCrossBB). Ops: hosts scanned.
	PhaseDRSScan
	// PhaseDRSDecide is DRS victim selection + migration (nested).
	// Ops: migrations performed.
	PhaseDRSDecide

	// NumPhases bounds arrays indexed by Phase.
	NumPhases
)

// firstNested is the first detail phase (see Phase.Nested).
const firstNested = PhaseSchedFilter

var phaseNames = [NumPhases]string{
	PhaseBuild:          "build",
	PhaseArrive:         "arrive",
	PhaseDelete:         "delete",
	PhaseHostSample:     "sample/hosts",
	PhaseVMSample:       "sample/vms",
	PhaseDRSTick:        "drs/tick",
	PhaseCrossBB:        "drs/crossbb",
	PhaseResize:         "resize",
	PhaseInject:         "inject",
	PhaseOther:          "other",
	PhaseSnapshotEncode: "snapshot/encode",
	PhaseSchedFilter:    "sched/filter",
	PhaseSchedWeigh:     "sched/weigh",
	PhaseSchedClaim:     "sched/claim",
	PhaseDRSScan:        "drs/scan",
	PhaseDRSDecide:      "drs/decide",
}

// String renders the phase's stable wire name.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Nested reports whether the phase is detail measured inside a top-level
// phase; nested time is excluded from AccountedNanos to avoid double
// counting.
func (p Phase) Nested() bool { return p >= firstNested && p < NumPhases }

// PhaseByName resolves a wire name back to its Phase.
func PhaseByName(name string) (Phase, bool) {
	for p := Phase(0); p < NumPhases; p++ {
		if phaseNames[p] == name {
			return p, true
		}
	}
	return 0, false
}

// Counter is one phase's (or owner's) accumulated attribution.
type Counter struct {
	// Nanos is attributed wall time.
	Nanos int64
	// Count is how many times the phase ran (events fired, sweeps taken).
	Count int64
	// Ops counts phase-specific work units — the allocation-behavior
	// proxy (see the Phase constants for units).
	Ops int64 `json:",omitempty"`
}

func (c *Counter) add(o Counter) {
	c.Nanos += o.Nanos
	c.Count += o.Count
	c.Ops += o.Ops
}

// base anchors the package's monotonic readings: time.Since(base) is a
// single vDSO clock read with no allocation, and only differences of
// readings are ever used.
var base = time.Now()

// nanotime is a monotonic reading in nanoseconds since package init.
func nanotime() int64 { return int64(time.Since(base)) }

// ownerBucket accumulates one exact event-owner string's attribution, with
// its phase mapping resolved once at creation.
type ownerBucket struct {
	c     Counter
	phase Phase
}

// Collector accumulates a single engine's attribution. Create one per
// simulation with New; it is not safe for concurrent use.
type Collector struct {
	phases [NumPhases]Counter
	owners map[string]*ownerBucket
	// lastOwner caches the previous event's bucket: consecutive events
	// often share an owner (telemetry sweeps, arrival bursts), and the
	// string-equality fast path skips the map hash.
	lastOwnerKey string
	lastOwner    *ownerBucket
	// mark is the delta-chain cursor inside a run window.
	mark int64
	// accounted is total top-level attributed time (the envelope the
	// per-phase table is rendered against).
	accounted int64
	events    int64
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{owners: make(map[string]*ownerBucket, 16)}
}

// phaseForOwner maps an event-owner string to its top-level phase.
func phaseForOwner(owner string) Phase {
	switch owner {
	case "core/arrive":
		return PhaseArrive
	case "core/delete":
		return PhaseDelete
	case "core/tick/host":
		return PhaseHostSample
	case "core/tick/vm":
		return PhaseVMSample
	case "core/tick/drs":
		return PhaseDRSTick
	case "core/tick/cross":
		return PhaseCrossBB
	case "core/tick/resize":
		return PhaseResize
	}
	if strings.HasPrefix(owner, "inj/") {
		return PhaseInject
	}
	return PhaseOther
}

func (c *Collector) bucket(owner string) *ownerBucket {
	if owner == c.lastOwnerKey && c.lastOwner != nil {
		return c.lastOwner
	}
	b := c.owners[owner]
	if b == nil {
		b = &ownerBucket{phase: phaseForOwner(owner)}
		c.owners[owner] = b
	}
	c.lastOwnerKey = owner
	c.lastOwner = b
	return b
}

// BeginRun opens a run window: the delta chain restarts here, so time the
// engine spent *outside* the run loop (snapshot encode between segments,
// observer dispatch) is never attributed to the first event of the next
// window.
func (c *Collector) BeginRun() { c.mark = nanotime() }

// Event closes the current delta-chain interval and attributes it to the
// owner of the event that just fired. One clock read; no allocation once
// the owner's bucket exists. The interval includes the queue's peek/pop
// work for that event, so a full run window's intervals account for the
// entire loop.
func (c *Collector) Event(owner string) {
	now := nanotime()
	d := now - c.mark
	c.mark = now
	b := c.bucket(owner)
	b.c.Nanos += d
	b.c.Count++
	p := &c.phases[b.phase]
	p.Nanos += d
	p.Count++
	c.accounted += d
	c.events++
}

// Start opens a measured span; pass the returned reading to EndSpan.
func (c *Collector) Start() int64 { return nanotime() }

// EndSpan attributes the time since start to phase and adds ops work
// units. Top-level spans (build, snapshot encode) extend the accounted
// envelope; nested spans (scheduler, DRS detail) do not — their time is
// already inside an event's interval.
func (c *Collector) EndSpan(phase Phase, start int64, ops int64) {
	d := nanotime() - start
	p := &c.phases[phase]
	p.Nanos += d
	p.Count++
	p.Ops += ops
	if !phase.Nested() {
		c.accounted += d
	}
}

// AddOps adds work units to a phase without touching its timing — for op
// counts observed where the timing is taken elsewhere (the sampler's
// append counts inside the host-tick interval).
func (c *Collector) AddOps(phase Phase, ops int64) { c.phases[phase].Ops += ops }

// SetOps overwrites a phase's work units with an externally accumulated
// absolute count (e.g. the placement service's claim counter).
func (c *Collector) SetOps(phase Phase, ops int64) { c.phases[phase].Ops = ops }

// SetOwnerOps overwrites an exact owner row's work units without touching
// any timing — for subsystem counters that enrich the owner breakdown
// (e.g. esx snapshot-cache hit/miss totals). Idempotent per snapshot:
// callers pass absolute counts.
func (c *Collector) SetOwnerOps(owner string, ops int64) { c.bucket(owner).c.Ops = ops }

// Events reports how many engine events have been attributed.
func (c *Collector) Events() int64 { return c.events }

// OwnerCount is one exact event-owner's attribution in a Profile,
type OwnerCount struct {
	Owner string
	Counter
}

// Profile is the serializable snapshot of a collector: the per-cell
// artifact that rides core.Result, the dispatch CAS, and analyze -engprof.
type Profile struct {
	// Format is FormatVersion at snapshot time.
	Format int
	// Phases maps Phase wire names to their counters.
	Phases map[string]Counter
	// Owners is the exact event-owner breakdown, sorted by Nanos
	// descending (the top-N table of analyze -engprof).
	Owners []OwnerCount
	// AccountedNanos is the top-level envelope: every top-level phase's
	// Nanos sums to exactly this value, so attribution always covers 100%
	// of the profiler-observed wall time by construction.
	AccountedNanos int64
	// Events is the number of engine events attributed.
	Events int64
	// Cells is how many cell profiles were merged into this one (1 for a
	// single cell).
	Cells int
}

// Profile snapshots the collector. Cheap; callable between run windows.
func (c *Collector) Profile() *Profile {
	p := &Profile{
		Format:         FormatVersion,
		Phases:         make(map[string]Counter, int(NumPhases)),
		AccountedNanos: c.accounted,
		Events:         c.events,
		Cells:          1,
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		if c.phases[ph] != (Counter{}) {
			p.Phases[ph.String()] = c.phases[ph]
		}
	}
	p.Owners = make([]OwnerCount, 0, len(c.owners))
	for owner, b := range c.owners {
		p.Owners = append(p.Owners, OwnerCount{Owner: owner, Counter: b.c})
	}
	sortOwners(p.Owners)
	return p
}

func sortOwners(o []OwnerCount) {
	sort.Slice(o, func(i, j int) bool {
		if o[i].Nanos != o[j].Nanos {
			return o[i].Nanos > o[j].Nanos
		}
		return o[i].Owner < o[j].Owner
	})
}

// Validate rejects profiles from another format version.
func (p *Profile) Validate() error {
	if p.Format != FormatVersion {
		return fmt.Errorf("engprof: profile format %d, want %d", p.Format, FormatVersion)
	}
	return nil
}

// Phase reads one phase's counter (zero value when absent).
func (p *Profile) Phase(ph Phase) Counter { return p.Phases[ph.String()] }

// TopLevelNanos sums the top-level phases — equal to AccountedNanos for
// any profile this package produced.
func (p *Profile) TopLevelNanos() int64 {
	var sum int64
	for name, c := range p.Phases {
		if ph, ok := PhaseByName(name); ok && !ph.Nested() {
			sum += c.Nanos
		}
	}
	return sum
}

// Merge folds src into dst: counters add per phase, owner rows add per
// owner, envelopes and cell counts add. It is how analyze -engprof
// aggregates a sweep directory into one fleet-wide attribution.
func (dst *Profile) Merge(src *Profile) {
	for name, c := range src.Phases {
		d := dst.Phases[name]
		d.add(c)
		dst.Phases[name] = d
	}
	byOwner := make(map[string]int, len(dst.Owners))
	for i := range dst.Owners {
		byOwner[dst.Owners[i].Owner] = i
	}
	for _, oc := range src.Owners {
		if i, ok := byOwner[oc.Owner]; ok {
			dst.Owners[i].Counter.add(oc.Counter)
		} else {
			dst.Owners = append(dst.Owners, oc)
		}
	}
	sortOwners(dst.Owners)
	dst.AccountedNanos += src.AccountedNanos
	dst.Events += src.Events
	dst.Cells += src.Cells
}

// Encode writes the profile as JSON.
func (p *Profile) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// EncodeBytes renders the profile's JSON wire form.
func (p *Profile) EncodeBytes() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// Decode reads and validates a JSON profile.
func Decode(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("engprof: decode: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Phases == nil {
		p.Phases = make(map[string]Counter)
	}
	if p.Cells == 0 {
		p.Cells = 1
	}
	return &p, nil
}

// DecodeBytes is Decode over a byte slice.
func DecodeBytes(b []byte) (*Profile, error) {
	return Decode(bytes.NewReader(b))
}
