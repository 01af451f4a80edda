package dispatch

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
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
