package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sapsim/internal/cli"
	"sapsim/internal/dispatch"
	"sapsim/internal/scenario"
)

// matrix is the CI sweep: two scenarios by two variants at one seed.
var matrix = []string{"-scale", "0.01", "-vms", "300", "-days", "3",
	"-scenarios", "baseline,host-failures", "-variants", "default,no-drs", "-seeds", "7"}

// lockedBuffer is a bytes.Buffer safe for the concurrent progress writes
// the sweep's worker goroutines make, as os.Stderr is.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func runSweep(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(append([]string{"-progress=false"}, args...), &stdout, &stderr); err != nil {
		t.Fatalf("sweep %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.String()
}

// readTree maps every file under dir, by slash path, to its bytes.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(rel)], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestBundleChecksumsVerify(t *testing.T) {
	bundle := filepath.Join(t.TempDir(), "bundle")
	out := runSweep(t, append(matrix, "-workers", "4", "-diff", "-bundle", bundle)...)
	for _, want := range []string{"sweeping 2 scenarios x 2 variants x 1 seeds = 4 runs", "artifact diff vs baseline"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	sums, err := os.ReadFile(filepath.Join(bundle, "SHA256SUMS"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(sums)), "\n")
	if len(lines) != 4*18 {
		t.Errorf("SHA256SUMS lists %d bodies, want %d", len(lines), 4*18)
	}
	for _, line := range lines {
		digest, path, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed SHA256SUMS line %q", line)
		}
		body, err := os.ReadFile(filepath.Join(bundle, filepath.FromSlash(path)))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != digest {
			t.Errorf("%s: SHA-256 differs from SHA256SUMS", path)
		}
	}
}

// A journal drained by dispatched workers, then finished with -resume,
// bundles the same bytes as the in-process sweep of the same flags.
func TestResumedBundleMatchesInProcess(t *testing.T) {
	dir := t.TempDir()
	local, resumed, journal := filepath.Join(dir, "local"), filepath.Join(dir, "resumed"), filepath.Join(dir, "journal")
	runSweep(t, append(matrix, "-bundle", local)...)

	flags, cell := cli.Flags("sweep", &bytes.Buffer{})
	if err := cli.Parse(flags, matrix); err != nil {
		t.Fatal(err)
	}
	spec, err := cell.Spec(0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := dispatch.NewQueue(journal, spec, dispatch.QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err = dispatch.RunLocal(ctx, q, dispatch.LocalOptions{
		Workers: 2, HeartbeatEvery: 50 * time.Millisecond, Poll: 20 * time.Millisecond})
	if cerr := q.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}

	out := runSweep(t, "-resume", journal, "-bundle", resumed)
	if !strings.Contains(out, "artifact diff vs baseline") {
		t.Errorf("a resumed sweep always prints the artifact diff:\n%s", out)
	}
	want, got := readTree(t, local), readTree(t, resumed)
	if len(got) != len(want) {
		t.Errorf("resumed bundle has %d files, in-process %d", len(got), len(want))
	}
	for path, body := range want {
		if !bytes.Equal(got[path], body) {
			t.Errorf("%s differs between the in-process and resumed bundles", path)
		}
	}
}

func TestExportsAndTrace(t *testing.T) {
	dir := t.TempDir()
	report, trace, engprof := filepath.Join(dir, "report"), filepath.Join(dir, "trace.json"), filepath.Join(dir, "engprof")
	var stdout bytes.Buffer
	var stderr lockedBuffer
	args := append(append([]string{}, matrix...), "-variants", "default", "-diff",
		"-out", report, "-trace", trace, "-engprof", engprof)
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(stderr.buf.String(), "sweep: ["); n != 2 {
		t.Errorf("%d progress lines, want one per cell:\n%s", n, stderr.buf.String())
	}
	for _, path := range []string{
		filepath.Join(report, "report.txt"), filepath.Join(report, "runs.csv"), filepath.Join(report, "artifact_diff.txt"),
		trace, filepath.Join(engprof, "baseline__default__7.engprof.json"),
	} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", path, err)
		}
	}
}

func TestListNamesEveryBuiltin(t *testing.T) {
	out := runSweep(t, "-list")
	for _, sc := range scenario.Builtin() {
		if !strings.Contains(out, "  "+sc.Name+" ") {
			t.Errorf("-list lacks scenario %s", sc.Name)
		}
	}
	variants := scenario.BuiltinVariants()
	if len(variants) != 8 {
		t.Errorf("%d builtin variants, want 8", len(variants))
	}
	for _, v := range variants {
		if !strings.Contains(out, "  "+v.Name+" ") || !strings.Contains(out, v.Description+"\n") {
			t.Errorf("-list lacks variant %s", v.Name)
		}
	}
}

func TestBadMatrixFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scenarios", "no-such-scenario"}, &stdout, &stderr); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"-variants", "default,default"}, &stdout, &stderr); err == nil {
		t.Error("repeated variant accepted")
	}
}
