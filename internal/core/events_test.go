package core

import (
	"bytes"
	"errors"
	"testing"

	"sapsim/internal/events"
	"sapsim/internal/sim"
	"sapsim/internal/vmmodel"
)

// TestRejectedEventFailsTheRun: an event-log append the log refuses used to
// be dropped; it must come back from AdvanceTo.
func TestRejectedEventFailsTheRun(t *testing.T) {
	s, err := NewSimulation(smallConfig(5), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	// An entry ahead of the clock makes the run's next append out of order.
	ahead := events.Event{At: s.Horizon(), Type: events.Create, VM: "ahead"}
	if err := s.Result().Events.Append(ahead); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(s.Horizon(), nil); !errors.Is(err, events.ErrBadEvent) {
		t.Fatalf("AdvanceTo = %v, want events.ErrBadEvent", err)
	}
}

func TestRunRecordsEvents(t *testing.T) {
	cfg := smallConfig(37)
	cfg.ResizeRate = 0.5 // aggressive so a one-week window sees resizes
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events.Len() == 0 {
		t.Fatal("no events recorded")
	}
	counts := res.Events.CountByType()
	if counts[events.Create] == 0 {
		t.Error("no create events (churn arrivals must be recorded)")
	}
	if counts[events.Delete] == 0 {
		t.Error("no delete events")
	}
	if counts[events.Resize] == 0 {
		t.Error("no resize events despite aggressive rate")
	}
	if counts[events.Resize] != res.Resizes {
		t.Errorf("resize events %d != Resizes counter %d", counts[events.Resize], res.Resizes)
	}
	// Migrations appear when DRS acts; correlate with the counter.
	if counts[events.MigrateIntraBB] != res.DRSMigrations {
		t.Errorf("migration events %d != DRS counter %d",
			counts[events.MigrateIntraBB], res.DRSMigrations)
	}
}

func TestRunEventsChronological(t *testing.T) {
	res, err := Run(smallConfig(41))
	if err != nil {
		t.Fatal(err)
	}
	all := res.Events.All()
	for i := 1; i < len(all); i++ {
		if all[i-1].At > all[i].At {
			t.Fatalf("events out of order at %d: %v > %v", i, all[i-1].At, all[i].At)
		}
	}
}

func TestRunInitialPopulationNotInEventStream(t *testing.T) {
	res, err := Run(smallConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	// The dataset's events cover the observation window; the initial
	// population predates it, so day-0 creations must be churn only.
	churn := res.Events.Churn(res.Config.Days)
	initial := 0
	for _, vm := range res.VMs {
		if vm.CreatedAt <= 0 {
			initial++
		}
	}
	if churn[0].Creates >= initial {
		t.Errorf("day-0 creates (%d) suspiciously high vs initial population (%d): epoch VMs leaked into the event stream",
			churn[0].Creates, initial)
	}
	for _, e := range res.Events.All() {
		if e.Type == events.Create && e.At <= 0 {
			t.Fatal("create event at or before the epoch")
		}
	}
}

func TestRunResizeKeepsInvariants(t *testing.T) {
	cfg := smallConfig(47)
	cfg.ResizeRate = 1.0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resizes == 0 {
		t.Skip("no resizes occurred this seed")
	}
	// Allocation counters must still equal the sum of resident VMs.
	for _, h := range res.Fleet.Hosts() {
		wantCPU := 0
		var wantMem int64
		for _, vm := range h.VMs() {
			wantCPU += vm.RequestedCPUCores()
			wantMem += vm.RequestedMemoryMB()
		}
		if h.AllocatedVCPUs() != wantCPU || h.AllocatedMemMB() != wantMem {
			t.Fatalf("host %s accounting drifted after resizes", h.Node.ID)
		}
	}
}

func TestEventCSVExportFromRun(t *testing.T) {
	res, err := Run(smallConfig(53))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Events.WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	back, err := events.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != res.Events.Len() {
		t.Errorf("round trip lost events: %d vs %d", back.Len(), res.Events.Len())
	}
}

func TestRunResizeDisabled(t *testing.T) {
	cfg := smallConfig(59)
	cfg.ResizeRate = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resizes != 0 {
		t.Errorf("resizes = %d with rate 0", res.Resizes)
	}
	if res.Events.CountByType()[events.Resize] != 0 {
		t.Error("resize events with rate 0")
	}
}

func TestRunDeterministicWithEvents(t *testing.T) {
	cfg := smallConfig(61)
	cfg.Days = 3
	cfg.ResizeRate = 0.5
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events.Len() != b.Events.Len() {
		t.Fatalf("event counts differ: %d vs %d", a.Events.Len(), b.Events.Len())
	}
	ea, eb := a.Events.All(), b.Events.All()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

// Deleted VMs must never linger on hosts, whatever mix of churn, DRS, and
// resize ran.
func TestRunNoGhostVMs(t *testing.T) {
	cfg := smallConfig(67)
	cfg.ResizeRate = 0.5
	cfg.CrossBB = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Fleet.Hosts() {
		for _, vm := range h.VMs() {
			if vm.State == vmmodel.Deleted {
				t.Fatalf("deleted VM %s still resident on %s", vm.ID, h.Node.ID)
			}
			if vm.Node == nil || vm.Node.ID != h.Node.ID {
				t.Fatalf("VM %s placement pointer inconsistent", vm.ID)
			}
		}
	}
	_ = sim.Time(0)
}
