// Package scenario is the declarative operational-event layer on top of the
// discrete-event engine. A Scenario composes injectable events — host
// failures and recoveries, building-block maintenance drains, AZ-scoped
// outages, demand surges and flavor-mix shifts, scheduled mass-resize waves
// — over the steady-state 30-day run that core.Run reproduces from the
// paper. Every injection derives its randomness from the run's seed, so
// scenario runs stay bit-for-bit deterministic per seed.
//
// The package also provides Sweep, a parallel matrix runner that executes
// (scenario × scheduler-config × seed) combinations across a bounded worker
// pool with per-run isolated telemetry stores and deterministic result
// ordering, plus a comparative report over the headline artifacts (packing
// efficiency, scheduling latency proxy, migration counts).
package scenario

import (
	"fmt"

	"sapsim/internal/core"
	"sapsim/internal/sim"
	"sapsim/internal/vmmodel"
	"sapsim/internal/workload"
)

// Scenario is a named bundle of operational events layered over a base
// configuration. Scenarios are stateless: the same Scenario value can
// configure many concurrent runs.
type Scenario struct {
	Name        string
	Description string
	// Phases shape the churn arrival process before workload generation
	// (demand surges, lulls, flavor-mix shifts).
	Phases []workload.Phase
	// Injections schedule operational events onto the engine once the
	// simulation is assembled (failures, drains, outages, resize waves).
	Injections []core.Injector
}

// Configure returns a copy of cfg with the scenario's phases and injections
// applied on top of whatever the config already carries.
func (s *Scenario) Configure(cfg core.Config) core.Config {
	if len(s.Phases) > 0 {
		cfg.ArrivalPhases = append(append([]workload.Phase{}, cfg.ArrivalPhases...), s.Phases...)
	}
	if len(s.Injections) > 0 {
		cfg.Injectors = append(append([]core.Injector{}, cfg.Injectors...), s.Injections...)
	}
	return cfg
}

// SurgePhase is a demand surge: arrival intensity scaled by mult over
// [from, to).
func SurgePhase(from, to sim.Time, mult float64) workload.Phase {
	return workload.Phase{From: from, To: to, RateMultiplier: mult}
}

// ClassShiftPhase shifts the flavor mix: arrivals of one workload class
// scaled by mult over [from, to), other classes unchanged.
func ClassShiftPhase(from, to sim.Time, class vmmodel.WorkloadClass, mult float64) workload.Phase {
	return workload.Phase{
		From: from, To: to, RateMultiplier: 1,
		ClassMultiplier: map[vmmodel.WorkloadClass]float64{class: mult},
	}
}

// Baseline is the steady-state run with no injected events — the reference
// every comparative report measures against.
func Baseline() *Scenario {
	return &Scenario{Name: "baseline", Description: "steady-state 30-day run, no operational events"}
}

// Builtin returns the scenario library, baseline first. Injection times are
// absolute days chosen for the default 30-day window; under a shorter
// horizon, events scheduled past it simply never fire (a 2-day run of
// az-outage degrades to the baseline), so pick a window that covers the
// scenarios under comparison.
func Builtin() []*Scenario {
	return []*Scenario{
		Baseline(),
		{
			Name:        "host-failures",
			Description: "2% of hosts fail on day 2 and recover two days later; residents evacuate through Nova",
			Injections: []core.Injector{
				HostFailures{At: 2 * sim.Day, Fraction: 0.02, Recover: 2 * sim.Day},
			},
		},
		{
			Name:        "az-outage",
			Description: "availability zone 1 goes dark for 12 hours on day 3",
			Injections: []core.Injector{
				AZOutage{At: 3 * sim.Day, AZIndex: 1, Duration: 12 * sim.Hour},
			},
		},
		{
			Name:        "maintenance-drain",
			Description: "rolling drain of one building block starting day 1, one node every 30 minutes",
			Injections: []core.Injector{
				MaintenanceDrain{At: 1 * sim.Day, BBIndex: 0, NodeEvery: 30 * sim.Minute, Hold: 4 * sim.Hour},
			},
		},
		{
			Name:        "demand-surge",
			Description: "3x arrival intensity between day 1 and day 3",
			Phases:      []workload.Phase{SurgePhase(1*sim.Day, 3*sim.Day, 3)},
		},
		{
			Name:        "hana-onboarding",
			Description: "HANA arrivals quadruple between day 1 and day 5 (flavor-mix shift)",
			Phases:      []workload.Phase{ClassShiftPhase(1*sim.Day, 5*sim.Day, vmmodel.HANA, 4)},
		},
		{
			Name:        "correlated-failures",
			Description: "three failure bursts inside one AZ's building blocks, 6 hours apart, half of each block down for a day",
			Injections: []core.Injector{
				CorrelatedFailures{At: 2 * sim.Day, Bursts: 3, Spacing: 6 * sim.Hour, Fraction: 0.5, Recover: sim.Day},
			},
		},
		{
			Name:        "capacity-expansion",
			Description: "two new general-purpose building blocks join a data center on days 1 and 2",
			Injections: []core.Injector{
				CapacityExpansion{At: 1 * sim.Day, Nodes: 8, Blocks: 2, Every: sim.Day},
			},
		},
		{
			Name:        "cascading-failures",
			Description: "load-coupled failure hazard over days 1-3: hot hosts fail more, evacuations heat the survivors",
			Injections: []core.Injector{
				CascadingFailures{Start: 1 * sim.Day, Duration: 2 * sim.Day, Every: sim.Hour,
					BaseProb: 0.001, Gain: 30, Recover: 12 * sim.Hour},
			},
		},
		{
			Name:        "resize-wave",
			Description: "mass-resize wave on day 2: 5% of live VMs change flavor within their class",
			Injections: []core.Injector{
				ResizeWave{At: 2 * sim.Day, Fraction: 0.05},
			},
		},
		{
			Name:        "black-friday",
			Description: "compound stress: demand surge plus host failures at the surge peak",
			Phases:      []workload.Phase{SurgePhase(1*sim.Day, 4*sim.Day, 4)},
			Injections: []core.Injector{
				HostFailures{At: 2 * sim.Day, Fraction: 0.01, Recover: sim.Day, Salt: 0xbf},
			},
		},
	}
}

// ByName looks up a builtin scenario.
func ByName(name string) (*Scenario, error) {
	for _, s := range Builtin() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("scenario: unknown scenario %q", name)
}
