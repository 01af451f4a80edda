package dispatch

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sapsim/internal/sim"
)

// TestRunLocalDefaultsToGOMAXPROCS: Workers <= 0 runs one in-process worker
// per GOMAXPROCS, as `sweep -resume DIR -workers 0` documents. Each booking
// is held until three workers hold one, so no worker drains the four-cell
// queue before the others book.
func TestRunLocalDefaultsToGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	q, _ := newTestQueue(t, QueueOptions{})

	var mu sync.Mutex
	booked := map[string]bool{}
	three := make(chan struct{})
	logf := func(format string, args ...any) {
		_, who, ok := strings.Cut(fmt.Sprintf(format, args...), " booked by ")
		if !ok {
			return
		}
		who, _, _ = strings.Cut(who, " ")
		mu.Lock()
		if !booked[who] {
			booked[who] = true
			if len(booked) == 3 {
				close(three)
			}
		}
		mu.Unlock()
		select {
		case <-three:
		case <-time.After(10 * time.Second):
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := RunLocal(ctx, q, LocalOptions{Logf: logf}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 3; i++ {
		if id := fmt.Sprintf("local-%d", i); !booked[id] {
			t.Errorf("%s never booked a cell (bookings by %v)", id, booked)
		}
	}
	if len(booked) != 3 {
		t.Errorf("bookings by %v, want local-0..local-2", booked)
	}
}

// TestRunLocalManyStrides: a cell of more strides than one report may carry
// spans for, with no heartbeat before its completion, still completes. The
// completion ships the first maxSpansPerReport spans, the worker logs the
// rest as dropped, and the merged sweep equals the reference.
func TestRunLocalManyStrides(t *testing.T) {
	spec := testSpec()
	spec.Base.Days = 12
	spec.CheckpointEvery = 30 * sim.Minute // 576 strides, one run span each
	ref := referenceSweep(t, spec)
	q, err := NewQueue(t.TempDir(), spec, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	var mu sync.Mutex
	var dropped []string
	logf := func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "dropped") {
			mu.Lock()
			dropped = append(dropped, line)
			mu.Unlock()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	merged, err := RunLocal(ctx, q, LocalOptions{Workers: 2, HeartbeatEvery: time.Hour, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, merged, ref, "many strides")
	mu.Lock()
	defer mu.Unlock()
	if len(dropped) != len(ref.Runs) {
		t.Errorf("%d span-drop log lines for %d cells: %q", len(dropped), len(ref.Runs), dropped)
	}
}
