package main

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"sapsim/internal/core"
	"sapsim/internal/dispatch"
	"sapsim/internal/sim"
)

// lockedBuffer is a bytes.Buffer safe for the concurrent writes the
// worker's cell and heartbeat goroutines make, as os.Stderr is.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// The worker drains a 2-cell matrix from a loopback dispatcher and exits 0
// once the dispatcher reports the sweep drained.
func TestDrainsMatrix(t *testing.T) { drainMatrix(t, "1") }

// With two jobs the cells run at once, so their engine profiles reach the
// per-phase histograms of the worker's metrics registry concurrently.
func TestDrainsMatrixTwoJobs(t *testing.T) { drainMatrix(t, "2") }

func drainMatrix(t *testing.T, jobs string) {
	base := core.DefaultConfig(7)
	base.Scale, base.VMs, base.Days, base.SampleEvery = 0.01, 150, 2, 15*sim.Minute
	spec, err := dispatch.ParseSpec(base, "baseline,host-failures", "default", "7", 6*sim.Hour)
	if err != nil {
		t.Fatal(err)
	}
	q, err := dispatch.NewQueue(t.TempDir(), spec, dispatch.QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d := dispatch.NewDispatcher(q)
	addr, err := d.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var stdout, stderr lockedBuffer
	if err := run([]string{"-dispatcher", "http://" + addr, "-id", "w1", "-jobs", jobs,
		"-heartbeat", "100ms", "-poll", "20ms", "-metrics", "127.0.0.1:0", "-timeout", "1m"},
		&stdout, &stderr); err != nil {
		t.Fatalf("simworker: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "fleet metrics at http://127.0.0.1:") {
		t.Errorf("no metrics address logged:\n%s", stderr.String())
	}
	res, err := d.WaitDrained(ctx, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("%d runs merged, want 2", len(res.Runs))
	}
	for _, r := range res.Runs {
		if r.Err != "" || len(r.Digests) == 0 {
			t.Errorf("%v: err %q, %d digests", r.Key, r.Err, len(r.Digests))
		}
	}
}

func TestRequiresDispatcher(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "-dispatcher") {
		t.Errorf("err = %v, want -dispatcher is required", err)
	}
}

func TestTimeoutStopsWorker(t *testing.T) {
	// Nothing listens at the dispatcher address, so the worker backs off
	// until -timeout expires and reports it.
	var stdout, stderr bytes.Buffer
	err := run([]string{"-dispatcher", "http://127.0.0.1:1", "-poll", "10ms", "-quiet", "-timeout", "50ms"}, &stdout, &stderr)
	if err == nil {
		t.Error("worker without a dispatcher exited 0")
	}
}
