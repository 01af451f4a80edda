package dispatch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"sapsim/internal/scenario"
)

// LocalOptions tune RunLocal.
type LocalOptions struct {
	// Workers is the in-process worker count (default GOMAXPROCS).
	Workers int
	// HeartbeatEvery / Poll tune the workers (see Worker).
	HeartbeatEvery time.Duration
	Poll           time.Duration
	// Logf receives dispatcher and worker transitions.
	Logf func(format string, args ...any)
}

// RunLocal drains a queue with an in-process dispatcher and N in-process
// workers over loopback HTTP — the full wire path, one process. It is how
// `cmd/sweep -resume DIR` finishes an interrupted sweep without external
// workers, and what the distributed-sweep example builds on. The queue is
// left open; callers Close it.
func RunLocal(ctx context.Context, q *Queue, opts LocalOptions) (*scenario.SweepResult, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	d := NewDispatcher(q)
	d.Logf = opts.Logf

	serveCtx, stopServe := context.WithCancel(ctx)
	defer stopServe()
	addr, err := d.Serve(serveCtx, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	errCh := make(chan error, opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		w := &Worker{
			Dispatcher:     "http://" + addr,
			ID:             fmt.Sprintf("local-%d", i),
			HeartbeatEvery: opts.HeartbeatEvery,
			Poll:           opts.Poll,
			Logf:           opts.Logf,
		}
		go func() { errCh <- w.Run(ctx) }()
	}
	var errs []error
	for i := 0; i < opts.Workers; i++ {
		if err := <-errCh; err != nil && !errors.Is(err, context.Canceled) {
			errs = append(errs, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return q.Merged()
}
