package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sapsim/internal/dataset"
	"sapsim/internal/exporter"
)

var tiny = []string{"-scale", "0.01", "-vms", "150", "-days", "2", "-sample", "15m", "-progress=false"}

func runSapsim(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(append(append([]string{}, tiny...), args...), &stdout, &stderr); err != nil {
		t.Fatalf("sapsim %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.String()
}

// hostNames reads a dataset and returns the hostsystem label values of its
// host CPU series.
func hostNames(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store, err := dataset.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range store.Select(exporter.MetricHostCPUUtil) {
		names = append(names, s.Labels.Get("hostsystem"))
	}
	if len(names) == 0 {
		t.Fatalf("%s: no host series", path)
	}
	return names
}

func TestWritesDatasetEventsAndFlavors(t *testing.T) {
	dir := t.TempDir()
	csv, events, flavors := filepath.Join(dir, "d.csv"), filepath.Join(dir, "e.csv"), filepath.Join(dir, "f.csv")
	out := runSapsim(t, "-o", csv, "-events", events, "-flavors", flavors)

	m := regexp.MustCompile(`(\d+) samples`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no sample count in summary:\n%s", out)
	}
	want, _ := strconv.Atoi(m[1])
	f, err := os.Open(csv)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	store, err := dataset.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := store.SampleCount(); got != want || got == 0 {
		t.Errorf("dataset holds %d samples, summary printed %d", got, want)
	}

	for _, path := range []string{events, flavors} {
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Count(string(body), "\n") < 2 {
			t.Errorf("%s: want a header and rows, got %q", path, body)
		}
	}
	ff, err := os.Open(flavors)
	if err != nil {
		t.Fatal(err)
	}
	defer ff.Close()
	if cat, err := dataset.ReadFlavors(ff); err != nil || len(cat) == 0 {
		t.Errorf("flavors CSV reloads as %d flavors (%v)", len(cat), err)
	}
}

func TestRawKeepsEntityNames(t *testing.T) {
	dir := t.TempDir()
	raw, anon := filepath.Join(dir, "raw.csv"), filepath.Join(dir, "anon.csv")
	runSapsim(t, "-raw", "-o", raw)
	runSapsim(t, "-o", anon)

	rawNames := map[string]bool{}
	for _, n := range hostNames(t, raw) {
		if !strings.HasPrefix(n, "dc-") {
			t.Errorf("-raw host name %q is not a node name", n)
		}
		rawNames[n] = true
	}
	for _, n := range hostNames(t, anon) {
		if rawNames[n] || strings.HasPrefix(n, "dc-") {
			t.Errorf("anonymized dataset leaks host name %q", n)
		}
	}
}

func TestUnwritableOutputFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := append(append([]string{}, tiny...), "-o", filepath.Join(t.TempDir(), "missing", "d.csv"))
	if err := run(args, &stdout, &stderr); err == nil {
		t.Error("writing into a missing directory succeeded")
	}
}
