// Command simworker is the worker half of the dispatcher split (the simd
// of SIMQ): it books sweep cells from a dispatchd, runs each through the
// step-driven sapsim Session, renews its lease with heartbeats that each
// carry at most one mid-run snapshot, uploads every artifact body into the
// dispatcher's content-addressed store (deduplicated: a HEAD probe skips
// blobs the store already holds), and completes each cell with its
// metrics plus digests. Workers are stateless: start as many as you have
// machines, kill them freely — a dead worker's cell re-books after its
// lease expires.
//
// -jobs advertises the worker's capacity on every booking: the dispatcher
// weights bookings by it, leasing an N-job worker up to N cells at once,
// so bigger machines drain the matrix proportionally faster.
//
// Usage:
//
//	simworker -dispatcher http://host:9090 [-id NAME] [-jobs N] \
//	          [-heartbeat D] [-poll D] [-timeout D] [-metrics ADDR] [-quiet]
//
// -metrics starts an HTTP listener serving the worker's fleet metrics
// (in-flight vs capacity, per-cell wall time, heartbeat RTT, upload dedup)
// in Prometheus exposition format at GET /metrics, scrapeable by the
// in-tree scrape/promql stack alongside the dispatcher's endpoint. Each
// completed cell also feeds its engine self-profile into per-phase
// worker_engine_phase_seconds histograms (labeled {worker, phase}), so a
// scrape shows live where the fleet's simulation time is going — the
// same attribution analyze -engprof renders post-hoc.
//
// Beyond the artifact bodies, every completed cell ships its engine
// self-profile blob into the store; the profile pointer survives the
// cell's completion and any dispatcher crash, so sweep -engprof can
// export per-cell attribution even from a resumed sweep.
//
// The worker exits 0 once the dispatcher reports the sweep drained.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sapsim/internal/dispatch"
	"sapsim/internal/fleetmetrics"
	"sapsim/internal/pprofserve"
)

func main() {
	var (
		dispatcher = flag.String("dispatcher", "", "dispatcher base URL, e.g. http://host:9090 (required)")
		id         = flag.String("id", "", "worker id (default host:pid)")
		jobs       = flag.Int("jobs", 1, "cells to run concurrently")
		heartbeat  = flag.Duration("heartbeat", 2*time.Second, "heartbeat cadence (must be well under the dispatcher lease)")
		poll       = flag.Duration("poll", 500*time.Millisecond, "idle re-poll interval when no cell is free")
		timeout    = flag.Duration("timeout", 0, "wall-clock limit (0 = run until drained)")
		metrics    = flag.String("metrics", "", "serve Prometheus metrics at this address (e.g. 127.0.0.1:9191; empty = off)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof at this address (e.g. 127.0.0.1:6061; empty = off)")
		snapshots  = flag.Bool("snapshots", true, "upload mid-run engine snapshots so a re-booked cell warm-resumes instead of restarting from t=0")
		quiet      = flag.Bool("quiet", false, "suppress per-cell progress lines")
	)
	flag.Parse()
	if *dispatcher == "" {
		fmt.Fprintln(os.Stderr, "simworker: -dispatcher is required")
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *pprofAddr != "" {
		bound, err := pprofserve.Serve(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simworker: pprof listener:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "simworker: pprof at http://%s/debug/pprof/\n", bound)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	w := &dispatch.Worker{
		Dispatcher:       *dispatcher,
		ID:               *id,
		Concurrency:      *jobs,
		HeartbeatEvery:   *heartbeat,
		Poll:             *poll,
		DisableSnapshots: !*snapshots,
	}
	if !*quiet {
		w.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *metrics != "" {
		reg := fleetmetrics.NewRegistry()
		w.Metrics = reg
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simworker: metrics listener:", err)
			os.Exit(1)
		}
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		srv := &http.Server{Handler: mux}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "simworker: fleet metrics at http://%s/metrics\n", ln.Addr())
	}
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "simworker:", err)
		os.Exit(1)
	}
}
