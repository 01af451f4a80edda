package workload

import (
	"math"
	"testing"

	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

func replayStore(t *testing.T) *telemetry.Store {
	t.Helper()
	st := telemetry.NewStore()
	// vm-a: full window, MK flavor, rising CPU.
	la := telemetry.MustLabels("virtualmachine", "vm-a", "flavor", "MK", "project", "p1")
	for i := 0; i <= 48; i++ {
		ts := sim.Time(i) * sim.Hour
		if err := st.Append("vrops_virtualmachine_cpu_usage_ratio", la, ts, 0.01*float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := st.Append("vrops_virtualmachine_memory_consumed_ratio", la, ts, 0.8); err != nil {
			t.Fatal(err)
		}
	}
	// vm-b: appears at 10h, disappears at 20h (deleted mid-window).
	lb := telemetry.MustLabels("virtualmachine", "vm-b", "flavor", "XLG", "project", "p2")
	for i := 10; i <= 20; i++ {
		ts := sim.Time(i) * sim.Hour
		if err := st.Append("vrops_virtualmachine_cpu_usage_ratio", lb, ts, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestBuildReplay(t *testing.T) {
	st := replayStore(t)
	insts, err := BuildReplay(st, 2*sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 2 {
		t.Fatalf("instances = %d, want 2", len(insts))
	}
	// Sorted by arrival: vm-a (t=0) then vm-b (t=10h).
	a, b := insts[0], insts[1]
	if a.VM.ID != "vm-a" || b.VM.ID != "vm-b" {
		t.Fatalf("order = %s, %s", a.VM.ID, b.VM.ID)
	}
	if a.VM.Flavor.Name != "MK" || b.VM.Flavor.Name != "XLG" {
		t.Errorf("flavors = %s, %s", a.VM.Flavor.Name, b.VM.Flavor.Name)
	}
	if a.VM.Project != "p1" {
		t.Errorf("project = %s", a.VM.Project)
	}
	// vm-a observed until the end → survives the window.
	if a.DeleteAt() <= 2*sim.Day {
		t.Errorf("vm-a should outlive the window, deletes at %v", a.DeleteAt())
	}
	// vm-b's lifetime is its observed span.
	if b.ArriveAt != 10*sim.Hour || b.Lifetime != 10*sim.Hour {
		t.Errorf("vm-b timeline = arrive %v, life %v", b.ArriveAt, b.Lifetime)
	}
}

func TestReplayProfileValues(t *testing.T) {
	st := replayStore(t)
	insts, err := BuildReplay(st, 2*sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	p := insts[0].VM.Profile
	// At 24h the recorded value is 0.24; between samples, LOCF.
	if got := p.UsageAt(24 * sim.Hour).CPU; math.Abs(got-0.24) > 1e-12 {
		t.Errorf("CPU@24h = %v, want 0.24", got)
	}
	if got := p.UsageAt(24*sim.Hour + 30*sim.Minute).CPU; math.Abs(got-0.24) > 1e-12 {
		t.Errorf("CPU between samples = %v, want 0.24 (LOCF)", got)
	}
	if got := p.UsageAt(5 * sim.Hour).Mem; got != 0.8 {
		t.Errorf("Mem = %v, want 0.8", got)
	}
	// vm-b has no memory series → fallback.
	pb := insts[1].VM.Profile.(*ReplayProfile)
	if got := pb.UsageAt(15 * sim.Hour).Mem; got != 0.5 {
		t.Errorf("fallback mem = %v, want 0.5", got)
	}
	// Before the first sample → fallback (vm-b fallback CPU = first value).
	if got := pb.UsageAt(0).CPU; got != 0.5 {
		t.Errorf("pre-window CPU = %v, want fallback 0.5", got)
	}
	// Optional series absent → zero network, constant disk.
	if pb.UsageAt(0).TxKbps != 0 || pb.UsageAt(0).RxKbps != 0 {
		t.Error("absent network series should be 0")
	}
	if pb.UsageAt(0).Disk != 0.3 {
		t.Errorf("disk fallback = %v", pb.UsageAt(0).Disk)
	}
}

func TestBuildReplayErrors(t *testing.T) {
	if _, err := BuildReplay(telemetry.NewStore(), sim.Day); err == nil {
		t.Error("empty store accepted")
	}
	st := telemetry.NewStore()
	l := telemetry.MustLabels("virtualmachine", "vm-x", "flavor", "NOPE")
	if err := st.Append("vrops_virtualmachine_cpu_usage_ratio", l, 0, 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildReplay(st, sim.Day); err == nil {
		t.Error("unknown flavor accepted")
	}
}

func TestBuildReplaySkipsUnlabeled(t *testing.T) {
	st := replayStore(t)
	// A series without a virtualmachine label must be ignored.
	l := telemetry.MustLabels("other", "x")
	if err := st.Append("vrops_virtualmachine_cpu_usage_ratio", l, 0, 0.1); err != nil {
		t.Fatal(err)
	}
	insts, err := BuildReplay(st, 2*sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 2 {
		t.Errorf("instances = %d, want 2", len(insts))
	}
}
