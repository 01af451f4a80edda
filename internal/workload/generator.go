package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"sapsim/internal/sim"
	"sapsim/internal/vmmodel"
)

// Spec configures workload generation.
type Spec struct {
	// Seed makes the generated population fully deterministic.
	Seed uint64
	// TargetVMs is the initial population size at the observation epoch.
	// The paper's region holds ≈48,000 VMs; examples and tests use
	// down-scaled populations.
	TargetVMs int
	// Horizon is the observation window during which churn (arrivals and
	// deletions) is generated; the paper observes 30 days.
	Horizon sim.Time
	// LifetimeSigma is the log-normal shape of per-flavor lifetimes.
	// 1.2 spreads each flavor's lifetimes over roughly two orders of
	// magnitude, reproducing Fig. 15's within-flavor variation.
	LifetimeSigma float64
	// Projects is the number of tenants VMs are spread over.
	Projects int
	// Phases optionally modulate the churn arrival process (surges,
	// lulls, flavor-mix shifts). Empty keeps the homogeneous Poisson
	// process — and the exact RNG draw sequence — of the base workload.
	Phases []Phase
}

// DefaultSpec returns a spec for the given population size over 30 days.
func DefaultSpec(targetVMs int, seed uint64) Spec {
	return Spec{
		Seed:          seed,
		TargetVMs:     targetVMs,
		Horizon:       30 * sim.Day,
		LifetimeSigma: 1.2,
		Projects:      40,
	}
}

// Instance pairs a VM with its planned timeline. ArriveAt <= 0 marks VMs
// already running at the epoch (with age -ArriveAt); positive ArriveAt marks
// churn during the observation window.
type Instance struct {
	VM       *vmmodel.VM
	ArriveAt sim.Time
	Lifetime sim.Time // total planned lifetime from creation
}

// DeleteAt returns the planned deletion time relative to the epoch.
func (in *Instance) DeleteAt() sim.Time { return in.ArriveAt + in.Lifetime }

// Generator produces deterministic workloads.
type Generator struct {
	spec    Spec
	rng     *rand.Rand
	catalog []*vmmodel.Flavor
	nextID  int
}

// NewGenerator builds a generator over the paper's flavor catalog.
func NewGenerator(spec Spec) *Generator {
	if spec.LifetimeSigma <= 0 {
		spec.LifetimeSigma = 1.2
	}
	if spec.Projects <= 0 {
		spec.Projects = 40
	}
	return &Generator{
		spec:    spec,
		rng:     rand.New(rand.NewPCG(spec.Seed, 0x5a9c10ad)),
		catalog: vmmodel.Catalog(),
	}
}

// Generate returns the full workload: the initial population (stationary
// state at the epoch) plus Poisson churn over the horizon, sorted by
// arrival time.
func (g *Generator) Generate() []*Instance {
	instances := g.initialPopulation()
	instances = append(instances, g.churn()...)
	sort.Slice(instances, func(i, j int) bool {
		if instances[i].ArriveAt != instances[j].ArriveAt {
			return instances[i].ArriveAt < instances[j].ArriveAt
		}
		return instances[i].VM.ID < instances[j].VM.ID
	})
	return instances
}

// flavorQuota scales Fig. 15 per-flavor counts down to TargetVMs, keeping
// at least one VM for every flavor so the full catalog is exercised.
func (g *Generator) flavorQuota() map[*vmmodel.Flavor]int {
	total := vmmodel.TotalPaperVMs()
	quota := make(map[*vmmodel.Flavor]int, len(g.catalog))
	for _, f := range g.catalog {
		n := int(math.Round(float64(f.PaperCount) / float64(total) * float64(g.spec.TargetVMs)))
		if n < 1 {
			n = 1
		}
		quota[f] = n
	}
	return quota
}

func (g *Generator) initialPopulation() []*Instance {
	var out []*Instance
	quota := g.flavorQuota()
	for _, f := range g.catalog { // catalog order keeps generation deterministic
		for i := 0; i < quota[f]; i++ {
			life := g.Lifetime(f)
			// Stationary age: uniform over the planned lifetime, so the
			// population at the epoch contains both young and old VMs.
			age := sim.Time(g.rng.Float64() * float64(life))
			out = append(out, g.newInstance(f, -age, life))
		}
	}
	return out
}

// churn draws Poisson arrivals per flavor at rate quota/meanLifetime, which
// keeps the population approximately stationary across the window. With
// arrival phases configured the process becomes non-homogeneous and is
// sampled by thinning: candidates are drawn at the envelope rate and
// accepted with probability factor(t)/envelope.
func (g *Generator) churn() []*Instance {
	var out []*Instance
	quota := g.flavorQuota()
	for _, f := range g.catalog {
		mean := sim.Time(f.MeanLifetimeHours * float64(sim.Hour))
		rate := float64(quota[f]) / float64(mean) // arrivals per sim.Time unit
		if len(g.spec.Phases) == 0 {
			t := sim.Time(0)
			for {
				// Exponential inter-arrival. The conversion keeps 1-u from
				// fusing with Float64's scaling into a multiply-add.
				gap := sim.Time(-log(1-float64(g.rng.Float64())) / rate)
				t += gap
				if t >= g.spec.Horizon {
					break
				}
				out = append(out, g.newInstance(f, t, g.Lifetime(f)))
			}
			continue
		}
		envelope := phaseEnvelope(g.spec.Phases, f.Class)
		t := sim.Time(0)
		for {
			gap := sim.Time(-log(1-float64(g.rng.Float64())) / (rate * envelope))
			t += gap
			if t >= g.spec.Horizon {
				break
			}
			if g.rng.Float64()*envelope >= phaseFactor(g.spec.Phases, f.Class, t) {
				continue // thinned: outside (or below) the phase intensity
			}
			out = append(out, g.newInstance(f, t, g.Lifetime(f)))
		}
	}
	return out
}

func (g *Generator) newInstance(f *vmmodel.Flavor, arrive sim.Time, life sim.Time) *Instance {
	g.nextID++
	vm := &vmmodel.VM{
		ID:        vmmodel.ID(fmt.Sprintf("vm-%06d", g.nextID)),
		Flavor:    f,
		Project:   fmt.Sprintf("proj-%02d", g.rng.IntN(g.spec.Projects)),
		CreatedAt: arrive,
	}
	vm.Profile = g.newProfile(f)
	return &Instance{VM: vm, ArriveAt: arrive, Lifetime: life}
}

// Lifetime draws a log-normal lifetime for the flavor, with the flavor's
// Fig. 15 mean as the distribution median. A floor of five minutes matches
// the shortest observed lifetimes ("few minutes", Sec. 5.5).
func (g *Generator) Lifetime(f *vmmodel.Flavor) sim.Time {
	h := logNormal(g.rng, f.MeanLifetimeHours, g.spec.LifetimeSigma)
	d := sim.Time(h * float64(sim.Hour))
	if d < 5*sim.Minute {
		d = 5 * sim.Minute
	}
	return d
}

// newProfile draws the calibrated usage profile for a VM of the flavor.
func (g *Generator) newProfile(f *vmmodel.Flavor) *Profile {
	hana := f.Class == vmmodel.HANA
	p := &Profile{
		Seed:       g.rng.Uint64(),
		MeanCPU:    drawMeanCPU(g.rng),
		MeanMem:    drawMeanMem(g.rng, hana),
		DiurnalAmp: uniform(g.rng, 0.10, 0.30),
		WeekendDip: uniform(g.rng, 0.05, 0.30),
		PhaseHours: g.rng.Float64() * 6,
		NoiseAmp:   uniform(g.rng, 0.05, 0.20),
		BurstMag:   uniform(g.rng, 1.5, 1.5),
		DiskFrac:   uniform(g.rng, 0.10, 0.70),
	}
	// A minority of VMs are "noisy neighbors" with frequent bursts
	// (Sec. 3.2); the rest burst rarely.
	if g.rng.Float64() < 0.10 {
		p.BurstProb = uniform(g.rng, 0.05, 0.10)
	} else {
		p.BurstProb = g.rng.Float64() * 0.01
	}
	// Slow memory growth on a subset of VMs (visible in Fig. 10).
	if g.rng.Float64() < 0.15 {
		p.MemGrowthPerDay = g.rng.Float64() * 0.004
	}
	// Network: log-normal around a few Mbit/s; HANA replication is
	// heavier but still negligible next to a 200 Gbps NIC.
	median := 2000.0 // Kbit/s
	if hana {
		median = 20000
	}
	p.TxKbps = logNormal(g.rng, median, 1.0)
	p.RxKbps = logNormal(g.rng, median*1.4, 1.0)
	return p
}
