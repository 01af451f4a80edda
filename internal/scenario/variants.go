package scenario

import (
	"fmt"

	"sapsim/internal/core"
	"sapsim/internal/nova"
)

// BuiltinVariants returns the scheduler/policy configurations the paper's
// discussion makes interesting to compare: the production default, DRS off,
// the external cross-BB rebalancer on, the Sec. 7 holistic node-fit
// ablation, packing general-purpose workloads, and the contention-aware
// weigher fed by live telemetry.
func BuiltinVariants() []Variant {
	return []Variant{
		{Name: "default"},
		{Name: "no-drs", Apply: func(cfg *core.Config) { cfg.DRS = false }},
		{Name: "cross-bb", Apply: func(cfg *core.Config) { cfg.CrossBB = true }},
		{Name: "holistic", Apply: func(cfg *core.Config) { cfg.HolisticNodeFit = true }},
		{Name: "pack-general", Apply: func(cfg *core.Config) {
			cfg.Scheduler.GeneralNodePolicy = nova.PackNodes
		}},
		{Name: "contention-aware", Apply: func(cfg *core.Config) {
			cfg.ContentionFeed = true
			cfg.Scheduler.Weighers = nova.ContentionAwareWeighers()
		}},
	}
}

// VariantByName looks up a builtin variant.
func VariantByName(name string) (Variant, error) {
	for _, v := range BuiltinVariants() {
		if v.Name == name {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("scenario: unknown variant %q", name)
}
