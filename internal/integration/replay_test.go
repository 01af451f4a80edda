package integration

import (
	"math"
	"testing"

	"sapsim/internal/analysis"
	"sapsim/internal/core"
	"sapsim/internal/exporter"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
	"sapsim/internal/workload"
)

// TestReplayReproducesUtilizationShape exercises the dataset's headline use
// case: drive a scheduler with the *recorded* workload. A synthetic run's
// released per-VM telemetry is reconstructed via BuildReplay, the replayed
// profiles are re-sampled, and the Fig. 14a utilization split must match
// the original run's.
func TestReplayReproducesUtilizationShape(t *testing.T) {
	cfg := core.DefaultConfig(77)
	cfg.Scale = 0.02
	cfg.VMs = 300
	cfg.Days = 5
	cfg.SampleEvery = sim.Hour
	cfg.VMSampleEvery = sim.Hour
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	horizon := cfg.Horizon()

	insts, err := workload.BuildReplay(res.Store, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) < 250 {
		t.Fatalf("replay reconstructed only %d instances", len(insts))
	}

	// Re-sample the replayed profiles over the window and compare the
	// population split against the original telemetry.
	var replayMeans []float64
	for _, in := range insts {
		from := in.ArriveAt
		if from < 0 {
			from = 0
		}
		to := in.DeleteAt()
		if to > horizon {
			to = horizon
		}
		if to <= from {
			continue
		}
		sum, n := 0.0, 0
		for ts := from; ts < to; ts += sim.Hour {
			sum += in.VM.Profile.UsageAt(ts).CPU
			n++
		}
		if n > 0 {
			replayMeans = append(replayMeans, sum/float64(n))
		}
	}
	replaySplit := analysis.SplitUtilization(analysis.NewCDF(replayMeans))
	origSplit := analysis.SplitUtilization(
		analysis.VMMeanUsage(res.Store, exporter.MetricVMCPURatio, 0, horizon))

	if math.Abs(replaySplit.Under-origSplit.Under) > 0.05 {
		t.Errorf("replayed under-utilized share %.3f vs original %.3f",
			replaySplit.Under, origSplit.Under)
	}
	if math.Abs(replaySplit.Over-origSplit.Over) > 0.05 {
		t.Errorf("replayed over-utilized share %.3f vs original %.3f",
			replaySplit.Over, origSplit.Over)
	}
}

// TestReplayTimelineMatchesEvents checks that replay arrival/deletion times
// reconstructed from telemetry are consistent with the recorded event
// stream for churned VMs.
func TestReplayTimelineMatchesEvents(t *testing.T) {
	cfg := core.DefaultConfig(78)
	cfg.Scale = 0.02
	cfg.VMs = 250
	cfg.Days = 5
	cfg.SampleEvery = sim.Hour
	cfg.VMSampleEvery = 30 * sim.Minute
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := workload.BuildReplay(res.Store, cfg.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*workload.Instance{}
	for _, in := range insts {
		byID[string(in.VM.ID)] = in
	}
	checked := 0
	for _, e := range res.Events.All() {
		if e.Type != "create" {
			continue
		}
		in, ok := byID[e.VM]
		if !ok {
			// VMs deleted before their first telemetry sample leave no
			// series; acceptable loss.
			continue
		}
		// The reconstructed arrival must be within one VM-sampling
		// period of the recorded creation.
		if d := (in.ArriveAt - e.At).Duration(); d < 0 || d > (30*sim.Minute).Duration() {
			t.Errorf("VM %s: replay arrival %v vs create event %v", e.VM, in.ArriveAt, e.At)
		}
		checked++
	}
	if checked == 0 {
		t.Error("no created VMs cross-checked")
	}
	_ = telemetry.Labels{}
}
