// Command simworker is the worker half of the dispatcher split (the simd
// of SIMQ): it books sweep cells from a dispatchd, runs each through the
// step-driven sapsim Session, renews its lease with heartbeats that carry
// its trace spans, and completes each cell with one request carrying its
// metrics, artifact digests and the bodies behind them, which the
// dispatcher stores in its content-addressed store. Workers are stateless:
// start as many as you have machines, kill them freely — a dead worker's
// cell re-books after its lease expires and runs again from t=0.
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
// (in-flight vs capacity, per-cell wall time, heartbeat RTT, book failures)
// in Prometheus exposition format at GET /metrics, scrapeable by the
// in-tree scrape/promql stack alongside the dispatcher's endpoint. Each
// completed cell also feeds its engine self-profile into per-phase
// worker_engine_phase_seconds histograms (labeled {worker, phase}), so a
// scrape shows live where the fleet's simulation time is going — the
// same attribution analyze -engprof renders post-hoc.
//
// Beyond the artifact bodies, every completion carries the cell's engine
// self-profile, which the dispatcher stores; the cell's durable result
// names its digest, which survives any dispatcher crash, so sweep -engprof
// can export per-cell attribution even from a resumed sweep.
//
// The worker exits 0 once the dispatcher reports the sweep drained.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"sapsim/internal/cli"
	"sapsim/internal/dispatch"
	"sapsim/internal/fleetmetrics"
)

func main() { cli.Main("simworker", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs, cell := cli.Flags("simworker", stderr)
	var (
		dispatcher = fs.String("dispatcher", "", "dispatcher base URL, e.g. http://host:9090 (required)")
		id         = fs.String("id", "", "worker id (default host:pid)")
		jobs       = fs.Int("jobs", 1, "cells to run concurrently")
		heartbeat  = fs.Duration("heartbeat", 2*time.Second, "heartbeat cadence (must be well under the dispatcher lease)")
		poll       = fs.Duration("poll", 500*time.Millisecond, "idle re-poll interval when no cell is free")
		metrics    = fs.String("metrics", "", "serve Prometheus metrics at this address (e.g. 127.0.0.1:9191; empty = off)")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof at this address (e.g. 127.0.0.1:6061; empty = off)")
		quiet      = fs.Bool("quiet", false, "suppress per-cell progress lines")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *dispatcher == "" {
		return errors.New("-dispatcher is required")
	}

	ctx, cancel, err := cell.Interruptible("simworker", *pprofAddr, stderr)
	if err != nil {
		return err
	}
	defer cancel()

	w := &dispatch.Worker{
		Dispatcher:     *dispatcher,
		ID:             *id,
		Concurrency:    *jobs,
		HeartbeatEvery: *heartbeat,
		Poll:           *poll,
	}
	if !*quiet {
		w.Logf = cli.Logf(stderr, "")
	}
	if *metrics != "" {
		reg := fleetmetrics.NewRegistry()
		w.Metrics = reg
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		srv := &http.Server{Handler: mux}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		fmt.Fprintf(stderr, "simworker: fleet metrics at http://%s/metrics\n", ln.Addr())
	}
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}
