package scenario

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"sapsim/internal/core"
	"sapsim/internal/events"
	"sapsim/internal/sim"
	"sapsim/internal/vmmodel"
	"sapsim/internal/workload"
)

// testConfig is a fast laptop config: ~18 hosts, 300 VMs, coarse sampling.
func testConfig(days int) core.Config {
	cfg := core.DefaultConfig(7)
	cfg.Scale = 0.01
	cfg.VMs = 300
	cfg.Days = days
	cfg.SampleEvery = 30 * sim.Minute
	cfg.VMSampleEvery = 6 * sim.Hour
	return cfg
}

func runScenario(t *testing.T, sc *Scenario, days int) *core.Result {
	t.Helper()
	res, err := core.Run(sc.Configure(testConfig(days)))
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	return res
}

func TestHostFailuresEvacuate(t *testing.T) {
	sc := &Scenario{Name: "hf", Injections: []core.Injector{
		HostFailures{At: sim.Day, Count: 2, Recover: sim.Day},
	}}
	res := runScenario(t, sc, 3)
	counts := res.Events.CountByType()
	if counts[events.Evacuate]+counts[events.EvacuateFailed] == 0 {
		t.Fatalf("expected evacuation events, got %v", counts)
	}
	// Recovery restores the fleet: no node still in maintenance.
	for _, h := range res.Fleet.Hosts() {
		if h.Node.Maintenance {
			t.Errorf("host %s still in maintenance after recovery", h.Node.ID)
		}
	}
	if err := CheckInvariants(res); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestRejectedRecoveryFailsTheRun: a recovery event the engine refuses (here
// a Recover so large the instant overflows into the past) used to be
// dropped — the failed hosts silently never came back; it must come back
// from AdvanceTo.
func TestRejectedRecoveryFailsTheRun(t *testing.T) {
	sc := &Scenario{Name: "hf-overflow", Injections: []core.Injector{
		HostFailures{At: sim.Day, Count: 1, Recover: sim.Time(math.MaxInt64)},
	}}
	s, err := core.NewSimulation(sc.Configure(testConfig(2)), core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(s.Horizon(), nil); !errors.Is(err, sim.ErrPast) {
		t.Fatalf("AdvanceTo = %v, want sim.ErrPast", err)
	}
}

func TestHostFailuresPermanent(t *testing.T) {
	sc := &Scenario{Name: "hf-perm", Injections: []core.Injector{
		HostFailures{At: sim.Day, Count: 1}, // Recover == 0: never returns
	}}
	res := runScenario(t, sc, 2)
	down := 0
	for _, h := range res.Fleet.Hosts() {
		if h.Node.Maintenance {
			down++
		}
	}
	if down != 1 {
		t.Fatalf("expected exactly 1 permanently failed host, got %d", down)
	}
	if err := CheckInvariants(res); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestAZOutageTouchesWholeZone(t *testing.T) {
	sc := &Scenario{Name: "az", Injections: []core.Injector{
		AZOutage{At: sim.Day, AZIndex: 0, Duration: 6 * sim.Hour},
	}}
	res := runScenario(t, sc, 2)
	counts := res.Events.CountByType()
	if counts[events.Evacuate]+counts[events.EvacuateFailed] == 0 {
		t.Fatalf("expected the outage to displace VMs, got %v", counts)
	}
	for _, h := range res.Fleet.Hosts() {
		if h.Node.Maintenance {
			t.Errorf("host %s still down after the outage window", h.Node.ID)
		}
	}
	if err := CheckInvariants(res); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestMaintenanceDrainRestores(t *testing.T) {
	sc := &Scenario{Name: "drain", Injections: []core.Injector{
		MaintenanceDrain{At: sim.Day, BBIndex: 0, NodeEvery: 30 * sim.Minute, Hold: 2 * sim.Hour},
	}}
	res := runScenario(t, sc, 3)
	for _, h := range res.Fleet.Hosts() {
		if h.Node.Maintenance {
			t.Errorf("host %s not restored after drain", h.Node.ID)
		}
	}
	if err := CheckInvariants(res); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestResizeWave(t *testing.T) {
	base := testConfig(2)
	base.ResizeRate = 0 // isolate the wave from background resize churn
	sc := &Scenario{Name: "wave", Injections: []core.Injector{
		ResizeWave{At: sim.Day, Count: 20},
	}}
	res, err := core.Run(sc.Configure(base))
	if err != nil {
		t.Fatal(err)
	}
	if res.Resizes == 0 {
		t.Fatal("resize wave produced no resizes")
	}
	if got := res.Events.CountByType()[events.Resize]; got != res.Resizes {
		t.Fatalf("resize events %d != resize counter %d", got, res.Resizes)
	}
	if err := CheckInvariants(res); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestDemandSurgeRaisesArrivals(t *testing.T) {
	base := runScenario(t, Baseline(), 3)
	surge := runScenario(t, &Scenario{
		Name:   "surge",
		Phases: []workload.Phase{SurgePhase(sim.Day, 2*sim.Day, 4)},
	}, 3)
	baseCreates := base.Events.CountByType()[events.Create]
	surgeCreates := surge.Events.CountByType()[events.Create]
	if surgeCreates <= baseCreates {
		t.Fatalf("surge creates %d <= baseline creates %d", surgeCreates, baseCreates)
	}
}

func TestClassShiftOnlyMovesOneClass(t *testing.T) {
	// Suppressing general-purpose arrivals entirely must leave only HANA
	// churn.
	sc := &Scenario{Name: "shift", Phases: []workload.Phase{
		ClassShiftPhase(0, 30*sim.Day, vmmodel.General, 0),
	}}
	res := runScenario(t, sc, 2)
	for _, e := range res.Events.All() {
		if e.Type != events.Create {
			continue
		}
		f, ok := vmmodel.CatalogByName()[e.Flavor]
		if !ok {
			t.Fatalf("unknown flavor %q", e.Flavor)
		}
		if f.Class != vmmodel.HANA {
			t.Fatalf("general-purpose VM %s created during a full suppression phase", e.VM)
		}
	}
}

func TestScenarioDeterminismPerSeed(t *testing.T) {
	sc, err := ByName("black-friday")
	if err != nil {
		t.Fatal(err)
	}
	a := runScenario(t, sc, 3)
	b := runScenario(t, sc, 3)
	if !reflect.DeepEqual(a.Events.All(), b.Events.All()) {
		t.Fatal("same seed produced different event streams")
	}
	if !reflect.DeepEqual(Extract(a), Extract(b)) {
		t.Fatalf("same seed produced different metrics: %+v vs %+v", Extract(a), Extract(b))
	}
}

func TestBuiltinScenariosSatisfyInvariants(t *testing.T) {
	for _, sc := range Builtin() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res := runScenario(t, sc, 3)
			if err := CheckInvariants(res); err != nil {
				t.Fatalf("invariants after %s: %v", sc.Name, err)
			}
		})
	}
}

// permaFailFirstDrainable permanently fails the first node of the building
// block MaintenanceDrain{BBIndex: 0} will later drain.
type permaFailFirstDrainable struct{}

func (permaFailFirstDrainable) Name() string { return "perma-fail" }

func (permaFailFirstDrainable) Inject(env *core.Env) error {
	_, err := env.Engine.Schedule(sim.Hour, func(now sim.Time) {
		for _, bb := range env.Region.BBs() {
			if bb.Reserved || len(bb.Nodes) <= 1 {
				continue
			}
			h, err := env.Fleet.Host(bb.Nodes[0].ID)
			if err != nil {
				panic(err)
			}
			failNode(env, h, now) // no restore: permanent
			return
		}
	})
	return err
}

// TestComposedInjectionsRespectPermanentFailures: a drain rolling over a
// building block with a permanently failed host must not resurrect it —
// out-of-service claims are reference-counted per node.
func TestComposedInjectionsRespectPermanentFailures(t *testing.T) {
	sc := &Scenario{Name: "compose", Injections: []core.Injector{
		permaFailFirstDrainable{},
		MaintenanceDrain{At: sim.Day, BBIndex: 0, NodeEvery: 30 * sim.Minute, Hold: 2 * sim.Hour},
	}}
	res := runScenario(t, sc, 3)
	var downIDs []string
	for _, h := range res.Fleet.Hosts() {
		if h.Node.Maintenance {
			downIDs = append(downIDs, string(h.Node.ID))
		}
	}
	if len(downIDs) != 1 {
		t.Fatalf("expected exactly the permanently failed host down, got %v", downIDs)
	}
	if err := CheckInvariants(res); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Fatal("expected error for unknown scenario")
	}
}
