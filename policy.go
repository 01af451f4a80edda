package sapsim

import (
	"fmt"
	"sort"
	"sync"

	"sapsim/internal/nova"
)

// Policy is a named placement-policy preset: a registered mutation of the
// run configuration that swaps scheduler weighers, node policies, and
// telemetry feeds as one unit. Policies follow the telegraf plugin-registry
// idiom — packages register them from init, consumers select them by name
// (Session's WithPolicy, the scheduler-comparison example, CLI flags) —
// so experiments stop hand-wiring scheduler internals at every call site.
type Policy struct {
	Name        string
	Description string
	// Apply mutates a per-run copy of the config. It must be safe to call
	// on any base config and must not retain the pointer.
	Apply func(*Config)
}

var policyRegistry = struct {
	sync.RWMutex
	byName map[string]Policy
}{byName: make(map[string]Policy)}

// RegisterPolicy adds a policy to the registry. Registration typically
// happens from init; an empty name, nil Apply, or duplicate name panics,
// surfacing wiring bugs at process start rather than mid-experiment.
func RegisterPolicy(p Policy) {
	if p.Name == "" {
		panic("sapsim: RegisterPolicy with empty name")
	}
	if p.Apply == nil {
		panic(fmt.Sprintf("sapsim: policy %q has nil Apply", p.Name))
	}
	policyRegistry.Lock()
	defer policyRegistry.Unlock()
	if _, dup := policyRegistry.byName[p.Name]; dup {
		panic(fmt.Sprintf("sapsim: duplicate policy %q", p.Name))
	}
	policyRegistry.byName[p.Name] = p
}

// Policies returns every registered policy sorted by name, the production
// default first.
func Policies() []Policy {
	policyRegistry.RLock()
	defer policyRegistry.RUnlock()
	out := make([]Policy, 0, len(policyRegistry.byName))
	for _, p := range policyRegistry.byName {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if (out[i].Name == PolicyProduction) != (out[j].Name == PolicyProduction) {
			return out[i].Name == PolicyProduction
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// PolicyByName looks up one registered policy.
func PolicyByName(name string) (Policy, bool) {
	policyRegistry.RLock()
	defer policyRegistry.RUnlock()
	p, ok := policyRegistry.byName[name]
	return p, ok
}

// Builtin policy names.
const (
	// PolicyProduction is the paper's production posture: spread
	// general-purpose workloads, bin-pack HANA.
	PolicyProduction = "sap-production"
	// PolicySpread spreads every workload class, HANA included.
	PolicySpread = "spread-everything"
	// PolicyPack bin-packs every workload class (BestFit-style).
	PolicyPack = "pack-everything"
	// PolicyContentionAware weighs recent per-BB CPU contention into
	// placement, the Sec. 7 "CPU contention should be mitigated" guidance.
	PolicyContentionAware = "contention-aware"
)

func init() {
	RegisterPolicy(Policy{
		Name:        PolicyProduction,
		Description: "spread general-purpose, bin-pack HANA (the paper's production posture)",
		Apply:       func(*Config) {},
	})
	RegisterPolicy(Policy{
		Name:        PolicySpread,
		Description: "spread all workload classes across building blocks and nodes",
		Apply: func(cfg *Config) {
			cfg.Scheduler.Weighers = []nova.Weigher{
				nova.RAMWeigher{Mult: 1, SAPPolicy: false},
				nova.CPUWeigher{Mult: 0.5},
			}
			cfg.Scheduler.HANANodePolicy = nova.SpreadNodes
		},
	})
	RegisterPolicy(Policy{
		Name:        PolicyPack,
		Description: "bin-pack all workload classes (BestFit-style consolidation)",
		Apply: func(cfg *Config) {
			cfg.Scheduler.Weighers = []nova.Weigher{
				nova.RAMWeigher{Mult: -1},
				nova.CPUWeigher{Mult: -0.5},
			}
			cfg.Scheduler.GeneralNodePolicy = nova.PackNodes
			cfg.Scheduler.HANANodePolicy = nova.PackNodes
		},
	})
	RegisterPolicy(Policy{
		Name:        PolicyContentionAware,
		Description: "feed per-BB contention telemetry into a contention weigher",
		Apply: func(cfg *Config) {
			cfg.ContentionFeed = true
			cfg.Scheduler.Weighers = nova.ContentionAwareWeighers()
		},
	})
}
