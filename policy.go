package sapsim

import "sapsim/internal/scenario"

// Policy is a named scheduler configuration: a row of scenario's one table
// (scenario.BuiltinVariants), which Session's WithPolicy applies to its
// config copy.
type Policy = scenario.Variant

// PolicyProduction names the table's "default" row, the paper's production
// posture (spread general-purpose, bin-pack HANA), in Policies. The
// benchmark's pinned place_churn fingerprints key that cell by this name.
const PolicyProduction = "sap-production"

// Names of the other rows Policies returns.
const (
	PolicySpread          = "spread-everything"
	PolicyPack            = "pack-everything"
	PolicyContentionAware = "contention-aware"
)

// Policies returns the four configurations the placement-policy study
// compares, the production posture first.
func Policies() []Policy {
	names := []string{PolicyProduction, PolicyContentionAware, PolicyPack, PolicySpread}
	out := make([]Policy, len(names))
	for i, name := range names {
		out[i], _ = PolicyByName(name)
	}
	return out
}

// PolicyByName looks a name up in the one table; PolicyProduction is the
// "default" row under its policy name.
func PolicyByName(name string) (Policy, bool) {
	row := name
	if name == PolicyProduction {
		row = "default"
	}
	p, err := scenario.VariantByName(row)
	p.Name = name
	return p, err == nil
}
