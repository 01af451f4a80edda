package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sapsim/internal/dispatch"
)

// The dispatcher serves a 2-cell matrix to an in-process worker over
// loopback, then merges and writes the report once drained.
func TestServesMatrixToWorker(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sweep")
	pr, pw := io.Pipe()
	var stderr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-dir", dir, "-addr", "127.0.0.1:0", "-progress=false",
			"-scale", "0.01", "-vms", "150", "-days", "2",
			"-scenarios", "baseline,host-failures", "-seeds", "7", "-timeout", "1m"}, pw, &stderr)
		pw.Close()
	}()

	// The first line names the bound address; the rest is the report.
	lines := bufio.NewScanner(pr)
	if !lines.Scan() {
		t.Fatalf("dispatchd printed nothing: %v %s", <-done, stderr.String())
	}
	rest, ok := strings.CutPrefix(lines.Text(), "dispatchd: serving 2 cells at ")
	if !ok {
		t.Fatalf("unexpected first line %q", lines.Text())
	}
	addr, _, _ := strings.Cut(rest, " ")
	var out strings.Builder
	copied := make(chan struct{})
	go func() {
		for lines.Scan() {
			out.WriteString(lines.Text() + "\n")
		}
		close(copied)
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &dispatch.Worker{Dispatcher: "http://" + addr, ID: "w", Concurrency: 2,
		HeartbeatEvery: 100 * time.Millisecond, Poll: 20 * time.Millisecond}
	worked := make(chan error, 1)
	go func() { worked <- w.Run(ctx) }()

	if err := <-done; err != nil {
		t.Fatalf("dispatchd: %v\n%s", err, stderr.String())
	}
	<-copied
	cancel()
	<-worked
	if !strings.Contains(out.String(), "host-failures") {
		t.Errorf("no comparative report on stdout:\n%s", out.String())
	}
	report, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "host-failures") {
		t.Errorf("report.txt is missing a scenario:\n%s", report)
	}
}

func TestRequiresDir(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "-dir") {
		t.Errorf("err = %v, want -dir is required", err)
	}
}

func TestResumeOfMissingJournalFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-dir", t.TempDir(), "-resume"}, &stdout, &stderr); err == nil {
		t.Error("resuming an empty directory succeeded")
	}
}
