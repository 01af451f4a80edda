package sapsim

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"sapsim/internal/dataset"
	"sapsim/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden artifact digests")

const (
	goldenPath        = "testdata/artifact_digests.txt"
	goldenDatasetPath = "testdata/dataset_digest.txt"
)

// goldenConfig is DefaultConfig(42) at reduced scale: small enough for
// tier-1, large enough that every artifact has real content.
func goldenConfig() Config {
	cfg := DefaultConfig(42)
	cfg.Scale = 0.02
	cfg.VMs = 960
	cfg.Days = 10
	return cfg
}

// churnGateConfig is a place_churn-shaped cell at tier-1 cost: daily
// sampling without per-VM series, 6-hourly DRS, cross-BB rebalancing and a
// resize rate that draws ≈ 24 picks per day over ≈ 2.4k live VMs.
func churnGateConfig() Config {
	cfg := DefaultConfig(42)
	cfg.Scale = 0.05
	cfg.VMs = 2400
	cfg.Days = 30
	cfg.SampleEvery = 24 * sim.Hour
	cfg.VMSampleEvery = 24 * sim.Hour
	cfg.RecordVMMetrics = false
	cfg.DRSEvery = 6 * sim.Hour
	cfg.CrossBB = true
	cfg.ResizeRate = 0.3
	return cfg
}

// TestGoldenArtifacts pins SHA-256 digests of all 18 experiment artifacts
// for DefaultConfig(42) at reduced scale. The simulation is deterministic
// per seed, so any refactor that drifts the paper reproduction — by one
// byte — fails here. Intentional changes re-bless the goldens with
// `go test -run TestGoldenArtifacts -update .`.
func TestGoldenArtifacts(t *testing.T) {
	res, err := Run(goldenConfig())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// The self-profiler is always on; prove it was actually engaged for
	// this run, so the digest comparison below demonstrates profiling
	// leaves all 18 artifacts byte-identical rather than being a no-op.
	if res.Profile == nil {
		t.Fatal("golden run carried no engine profile")
	}
	if err := res.Profile.Validate(); err != nil {
		t.Fatalf("golden run profile invalid: %v", err)
	}
	if res.Profile.Events == 0 || res.Profile.AccountedNanos == 0 {
		t.Fatalf("profiler idle during golden run: %d events, %d ns attributed",
			res.Profile.Events, res.Profile.AccountedNanos)
	}
	got := make(map[string]string)
	var order []string
	for _, exp := range Experiments() {
		art, err := exp.Compute(res)
		if err != nil {
			t.Fatalf("%s: %v", exp.ID, err)
		}
		got[exp.ID] = fmt.Sprintf("%x", sha256.Sum256([]byte(art.Text)))
		order = append(order, exp.ID)
	}
	if len(order) != 18 {
		t.Fatalf("expected 18 experiment artifacts, got %d", len(order))
	}

	if *updateGolden {
		var b strings.Builder
		for _, id := range order {
			fmt.Fprintf(&b, "%s %s\n", id, got[id])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d digests", goldenPath, len(order))
		return
	}

	compareGoldens(t, got, order)
}

// readGoldens loads the pinned digest file.
func readGoldens(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading goldens (run with -update to create them): %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		id, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[id] = sum
	}
	return want
}

func compareGoldens(t *testing.T, got map[string]string, order []string) {
	t.Helper()
	want := readGoldens(t)
	if len(want) != len(order) {
		t.Errorf("golden file has %d digests, run produced %d", len(want), len(order))
	}
	for _, id := range order {
		if want[id] == "" {
			t.Errorf("%s: no golden digest (run with -update after verifying the change)", id)
			continue
		}
		if got[id] != want[id] {
			t.Errorf("%s: artifact drifted: digest %s, golden %s", id, got[id], want[id])
		}
	}
}

// TestGoldenDataset pins the SHA-256 of the golden cell's full telemetry
// export. dataset.Write prints every sample at full precision, so a 1-ulp
// drift anywhere in the sampled model fails here even where the 18
// artifacts, printed to 3 significant digits, cannot show it. Intentional
// changes re-bless it with `go test -run TestGoldenDataset -update .`.
func TestGoldenDataset(t *testing.T) {
	res, err := Run(goldenConfig())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	h := sha256.New()
	if err := dataset.Write(h, res.Store, dataset.WriteOptions{}); err != nil {
		t.Fatalf("write dataset: %v", err)
	}
	got := fmt.Sprintf("%x", h.Sum(nil))
	if *updateGolden {
		if err := os.WriteFile(goldenDatasetPath, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenDatasetPath)
		return
	}
	want, err := os.ReadFile(goldenDatasetPath)
	if err != nil {
		t.Fatalf("reading dataset digest (run with -update to create it): %v", err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Errorf("dataset drifted: digest %s, golden %s", got, w)
	}
}

// TestGoldenArtifactsSnapshotResume proves the snapshot subsystem against
// the same goldens: snapshot the golden run at the midpoint of its horizon,
// round-trip the snapshot through its wire form, resume a fresh session
// from it, and finish — all 18 artifact digests must still match the
// uninterrupted run byte for byte. This is the path ResumeFromSnapshot
// takes, pinned to the paper reproduction; a resume needs the captured
// config exactly.
func TestGoldenArtifactsSnapshotResume(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are blessed through TestGoldenArtifacts")
	}
	cfg := goldenConfig()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	midpoint := int(cfg.Horizon()/cfg.SampleEvery) / 2
	if _, err := s.Step(midpoint); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeSnapshotBytes(snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshotBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeFromSnapshot(cfg, decoded)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Result()
	if err != nil {
		t.Fatal(err)
	}

	got := make(map[string]string)
	var order []string
	for _, exp := range Experiments() {
		art, err := exp.Compute(res)
		if err != nil {
			t.Fatalf("%s: %v", exp.ID, err)
		}
		got[exp.ID] = fmt.Sprintf("%x", sha256.Sum256([]byte(art.Text)))
		order = append(order, exp.ID)
	}
	compareGoldens(t, got, order)
}

// TestGoldenArtifactsSession proves the Session lifecycle and the Run
// compatibility wrapper emit identical artifacts: the same goldens must
// hold for a run driven through NewSession with uneven Step boundaries
// and an observer registered, so the engine's event and tick hooks are
// live throughout the run.
func TestGoldenArtifactsSession(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are blessed through TestGoldenArtifacts")
	}
	var progress atomic.Int64
	s, err := NewSession(goldenConfig(),
		WithObserverFunc(func(ev SessionEvent) {
			if _, ok := ev.(Progress); ok {
				progress.Add(1)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Drive the window in deliberately uneven segments: a few ticks, a
	// day-sized chunk, then the rest.
	if _, err := s.Step(3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(288); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}

	got := make(map[string]string)
	var order []string
	for _, exp := range Experiments() {
		art, err := exp.Compute(res)
		if err != nil {
			t.Fatalf("%s: %v", exp.ID, err)
		}
		got[exp.ID] = fmt.Sprintf("%x", sha256.Sum256([]byte(art.Text)))
		order = append(order, exp.ID)
	}
	compareGoldens(t, got, order)

	// Completion drained the dispatcher, so every Progress has been
	// delivered: the observer really was attached.
	if progress.Load() == 0 {
		t.Error("observer saw no Progress events")
	}
}
