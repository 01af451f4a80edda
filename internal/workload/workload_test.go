package workload

import (
	"math"
	"math/rand/v2"
	"testing"

	"sapsim/internal/sim"
	"sapsim/internal/vmmodel"
)

func TestHashUnitRangeAndDeterminism(t *testing.T) {
	for i := uint64(0); i < 1000; i++ {
		v := hashUnit(42, i)
		if v < 0 || v >= 1 {
			t.Fatalf("hashUnit out of range: %v", v)
		}
		if v != hashUnit(42, i) {
			t.Fatal("hashUnit not deterministic")
		}
	}
	if hashUnit(1, 7) == hashUnit(2, 7) {
		t.Error("different seeds gave identical hash (suspicious)")
	}
}

func TestHashNormalMoments(t *testing.T) {
	n := 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := hashNormal(99, uint64(i))
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("hashNormal mean = %v, want ≈0", mean)
	}
	if variance < 0.8 || variance > 1.2 {
		t.Errorf("hashNormal variance = %v, want ≈1", variance)
	}
}

// Figure 14a calibration: >80% of VMs below 70% mean CPU usage.
func TestDrawMeanCPUMatchesFig14a(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	n := 20000
	under, optimal, over := 0, 0, 0
	for i := 0; i < n; i++ {
		v := drawMeanCPU(rng)
		if v < 0 || v > 1 {
			t.Fatalf("mean CPU out of range: %v", v)
		}
		switch {
		case v < 0.70:
			under++
		case v <= 0.85:
			optimal++
		default:
			over++
		}
	}
	if frac := float64(under) / float64(n); frac < 0.80 {
		t.Errorf("under-utilized CPU fraction = %.3f, want >0.80 (Fig. 14a)", frac)
	}
	if frac := float64(over) / float64(n); frac > 0.12 {
		t.Errorf("over-utilized CPU fraction = %.3f, want small", frac)
	}
}

// Figure 14b calibration: ≈38% under, ≈10% optimal, majority above 85%.
func TestDrawMeanMemMatchesFig14b(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	n := 20000
	under, optimal, over := 0, 0, 0
	for i := 0; i < n; i++ {
		v := drawMeanMem(rng, false)
		switch {
		case v < 0.70:
			under++
		case v <= 0.85:
			optimal++
		default:
			over++
		}
	}
	uf, of, vf := float64(under)/float64(n), float64(optimal)/float64(n), float64(over)/float64(n)
	if uf < 0.30 || uf > 0.46 {
		t.Errorf("memory under fraction = %.3f, want ≈0.38", uf)
	}
	if of < 0.05 || of > 0.16 {
		t.Errorf("memory optimal fraction = %.3f, want ≈0.10", of)
	}
	if vf < 0.42 || vf > 0.62 {
		t.Errorf("memory over fraction = %.3f, want ≈0.52", vf)
	}
}

func TestDrawMeanMemHANA(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 1000; i++ {
		v := drawMeanMem(rng, true)
		if v < 0.85 {
			t.Fatalf("HANA memory usage %v below 0.85; HANA pins its tables", v)
		}
	}
}

func TestProfileDeterministic(t *testing.T) {
	p := &Profile{Seed: 5, MeanCPU: 0.3, MeanMem: 0.8, DiurnalAmp: 0.2, NoiseAmp: 0.1, BurstProb: 0.01, BurstMag: 2, TxKbps: 100, RxKbps: 100, DiskFrac: 0.4}
	for _, ti := range []sim.Time{0, sim.Hour, 3 * sim.Day, 29 * sim.Day} {
		if p.CPUUsage(ti) != p.CPUUsage(ti) {
			t.Fatal("CPUUsage not deterministic")
		}
		if p.MemUsage(ti) != p.MemUsage(ti) {
			t.Fatal("MemUsage not deterministic")
		}
	}
}

func TestProfileBounds(t *testing.T) {
	p := &Profile{Seed: 11, MeanCPU: 0.9, MeanMem: 0.95, DiurnalAmp: 0.4, WeekendDip: 0.3, NoiseAmp: 0.25, BurstProb: 0.5, BurstMag: 3, TxKbps: 5000, RxKbps: 5000, DiskFrac: 0.9, MemGrowthPerDay: 0.01}
	for ti := sim.Time(0); ti < 30*sim.Day; ti += 37 * sim.Minute {
		if c := p.CPUUsage(ti); c < 0 || c > 1.5 {
			t.Fatalf("CPUUsage out of [0,1.5]: %v at %v", c, ti)
		}
		if m := p.MemUsage(ti); m < 0 || m > 1 {
			t.Fatalf("MemUsage out of [0,1]: %v at %v", m, ti)
		}
		if d := p.DiskUsage(ti); d < 0 || d > 1 {
			t.Fatalf("DiskUsage out of [0,1]: %v", d)
		}
		if p.NetTxKbps(ti) < 0 || p.NetRxKbps(ti) < 0 {
			t.Fatal("negative network usage")
		}
	}
}

func TestProfileAverageTracksMean(t *testing.T) {
	p := &Profile{Seed: 13, MeanCPU: 0.25, DiurnalAmp: 0.2, WeekendDip: 0.2, NoiseAmp: 0.1, BurstProb: 0.005, BurstMag: 2}
	sum, n := 0.0, 0
	for ti := sim.Time(0); ti < 30*sim.Day; ti += 10 * sim.Minute {
		sum += p.CPUUsage(ti)
		n++
	}
	if avg := sum / float64(n); math.Abs(avg-0.25) > 0.06 {
		t.Errorf("30-day average = %v, want ≈0.25", avg)
	}
}

func TestProfileWeekendDip(t *testing.T) {
	p := &Profile{Seed: 17, MeanCPU: 0.5, WeekendDip: 0.4}
	// Epoch is Wednesday; days 3 and 4 are Saturday and Sunday. Compare
	// the same time of day.
	wed := p.CPUUsage(13 * sim.Hour)
	sat := p.CPUUsage(3*sim.Day + 13*sim.Hour)
	sun := p.CPUUsage(4*sim.Day + 13*sim.Hour)
	mon := p.CPUUsage(5*sim.Day + 13*sim.Hour)
	if sat >= wed {
		t.Errorf("Saturday usage %v not below weekday %v", sat, wed)
	}
	if sun >= wed {
		t.Errorf("Sunday usage %v not below weekday %v", sun, wed)
	}
	if mon < wed-1e-9 {
		t.Errorf("Monday usage %v dipped like a weekend (%v)", mon, wed)
	}
}

func TestProfileDiurnalCycle(t *testing.T) {
	p := &Profile{Seed: 19, MeanCPU: 0.5, DiurnalAmp: 0.3}
	peak := p.CPUUsage(13 * sim.Hour)  // 13:00
	trough := p.CPUUsage(1 * sim.Hour) // 01:00
	if peak <= trough {
		t.Errorf("diurnal peak %v not above trough %v", peak, trough)
	}
}

func TestMemGrowth(t *testing.T) {
	p := &Profile{Seed: 23, MeanMem: 0.5, MemGrowthPerDay: 0.005}
	early := p.MemUsage(sim.Hour)
	late := p.MemUsage(29 * sim.Day)
	if late <= early {
		t.Errorf("memory did not grow: %v -> %v", early, late)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := NewGenerator(DefaultSpec(500, 42)).Generate()
	b := NewGenerator(DefaultSpec(500, 42)).Generate()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].VM.ID != b[i].VM.ID || a[i].ArriveAt != b[i].ArriveAt || a[i].Lifetime != b[i].Lifetime {
			t.Fatalf("instance %d differs", i)
		}
	}
	c := NewGenerator(DefaultSpec(500, 43)).Generate()
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i].Lifetime != c[i].Lifetime {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical workloads")
		}
	}
}

func TestGeneratePopulationSize(t *testing.T) {
	insts := NewGenerator(DefaultSpec(1000, 1)).Generate()
	initial := 0
	for _, in := range insts {
		if in.ArriveAt <= 0 {
			initial++
		}
	}
	// Rounding and the one-per-flavor floor allow slight deviation.
	if initial < 950 || initial > 1100 {
		t.Errorf("initial population = %d, want ≈1000", initial)
	}
}

func TestGenerateSortedAndTimed(t *testing.T) {
	insts := NewGenerator(DefaultSpec(300, 2)).Generate()
	for i := 1; i < len(insts); i++ {
		if insts[i-1].ArriveAt > insts[i].ArriveAt {
			t.Fatal("instances not sorted by arrival")
		}
	}
	for _, in := range insts {
		if in.Lifetime < 5*sim.Minute {
			t.Fatalf("lifetime %v below the 5-minute floor", in.Lifetime)
		}
		if in.ArriveAt > 0 && in.ArriveAt >= 30*sim.Day {
			t.Fatalf("arrival %v beyond horizon", in.ArriveAt)
		}
		if in.VM.Profile == nil {
			t.Fatal("VM missing profile")
		}
		if in.DeleteAt() != in.ArriveAt+in.Lifetime {
			t.Fatal("DeleteAt inconsistent")
		}
	}
}

func TestGenerateFlavorCoverage(t *testing.T) {
	insts := NewGenerator(DefaultSpec(200, 3)).Generate()
	seen := map[string]bool{}
	for _, in := range insts {
		seen[in.VM.Flavor.Name] = true
	}
	if len(seen) != len(vmmodel.Catalog()) {
		t.Errorf("only %d/%d flavors instantiated", len(seen), len(vmmodel.Catalog()))
	}
}

// Figure 15 shape: lifetimes span minutes to years; the population median
// sits near one week; XL flavors skew long-lived.
func TestLifetimeDistributionMatchesFig15(t *testing.T) {
	g := NewGenerator(DefaultSpec(2000, 4))
	cat := vmmodel.CatalogByName()

	// Per-flavor medians should track MeanLifetimeHours.
	for _, name := range []string{"SA", "MK", "XLL"} {
		f := cat[name]
		var lives []float64
		for i := 0; i < 500; i++ {
			lives = append(lives, g.Lifetime(f).Hours())
		}
		med := median(lives)
		if med < f.MeanLifetimeHours/3 || med > f.MeanLifetimeHours*3 {
			t.Errorf("%s: median lifetime %.0fh, want ≈%.0fh", name, med, f.MeanLifetimeHours)
		}
	}

	// Population-weighted median: draw lifetimes following flavor quotas.
	insts := NewGenerator(DefaultSpec(3000, 5)).Generate()
	var all []float64
	for _, in := range insts {
		if in.ArriveAt <= 0 { // population at epoch, like the paper's snapshot
			all = append(all, in.Lifetime.Hours())
		}
	}
	med := median(all)
	week := 168.0
	if med < week/3 || med > week*3 {
		t.Errorf("population median lifetime = %.0fh, want ≈%.0fh (1 week)", med, week)
	}
}

func TestInitialPopulationAgesWithinLifetime(t *testing.T) {
	insts := NewGenerator(DefaultSpec(500, 6)).Generate()
	for _, in := range insts {
		if in.ArriveAt <= 0 {
			age := -in.ArriveAt
			if age > in.Lifetime {
				t.Fatalf("initial VM age %v exceeds lifetime %v", age, in.Lifetime)
			}
		}
	}
}

func TestHANAProfilesMemoryHeavy(t *testing.T) {
	insts := NewGenerator(DefaultSpec(2000, 7)).Generate()
	for _, in := range insts {
		if in.VM.Flavor.Class != vmmodel.HANA {
			continue
		}
		p := in.VM.Profile.(*Profile)
		if p.MeanMem < 0.85 {
			t.Fatalf("HANA VM %s mean memory %v < 0.85", in.VM.ID, p.MeanMem)
		}
	}
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), vals...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}
