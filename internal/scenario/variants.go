package scenario

import (
	"fmt"

	"sapsim/internal/core"
	"sapsim/internal/nova"
)

// BuiltinVariants returns the scheduler configurations the paper's Sec. 7
// guidance compares: the production default, DRS off, the external cross-BB
// rebalancer on, the holistic node-fit ablation, packing general-purpose
// workloads, the contention-aware weigher, and spreading or packing every
// workload class. It is the one place a scheduler configuration is
// written; the root package's policies and the sweep CLIs' variants are
// rows of it. Every row's Apply is non-nil.
func BuiltinVariants() []Variant {
	return []Variant{
		{Name: "default",
			Description: "spread general-purpose, bin-pack HANA (the paper's production posture)",
			Apply:       func(*core.Config) {}},
		{Name: "no-drs",
			Description: "intra-BB DRS rebalancing off",
			Apply:       func(cfg *core.Config) { cfg.DRS = false }},
		{Name: "cross-bb",
			Description: "the external cross-BB rebalancer on",
			Apply:       func(cfg *core.Config) { cfg.CrossBB = true }},
		{Name: "holistic",
			Description: "node-aware placement: the NodeFitFilter collapses the BB→node split",
			Apply:       func(cfg *core.Config) { cfg.HolisticNodeFit = true }},
		{Name: "pack-general",
			Description: "bin-pack general-purpose workloads onto nodes",
			Apply: func(cfg *core.Config) {
				cfg.Scheduler.GeneralNodePolicy = nova.PackNodes
			}},
		{Name: "contention-aware",
			Description: "weigh per-BB contention telemetry into placement",
			Apply: func(cfg *core.Config) {
				cfg.Scheduler.Weighers = nova.ContentionAwareWeighers()
			}},
		{Name: "spread-everything",
			Description: "spread all workload classes across building blocks and nodes",
			Apply: func(cfg *core.Config) {
				cfg.Scheduler.Weighers = []nova.Weigher{
					nova.RAMWeigher{Mult: 1, SAPPolicy: false},
					nova.CPUWeigher{Mult: 0.5},
				}
				cfg.Scheduler.HANANodePolicy = nova.SpreadNodes
			}},
		{Name: "pack-everything",
			Description: "bin-pack all workload classes (BestFit-style consolidation)",
			Apply: func(cfg *core.Config) {
				cfg.Scheduler.Weighers = []nova.Weigher{
					nova.RAMWeigher{Mult: -1},
					nova.CPUWeigher{Mult: -0.5},
				}
				cfg.Scheduler.GeneralNodePolicy = nova.PackNodes
				cfg.Scheduler.HANANodePolicy = nova.PackNodes
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
