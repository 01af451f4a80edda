// Fleet flight-recorder modes: -record drives the periodic scraper that
// persists every /metrics endpoint into an on-disk dataset during a
// sweep; -fleet replays such a dataset into queue-depth and
// worker-utilization timelines; -critpath loads an exported Chrome trace
// and prints the sweep's critical path and per-phase latency breakdown.
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"sapsim/internal/dataset"
	"sapsim/internal/dispatch"
	"sapsim/internal/promql"
	"sapsim/internal/scrape"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
	"sapsim/internal/trace"
)

// runRecord polls the targets into dir until interrupted (or -for
// elapses), mirroring scrape.Recorder.Run but keeping the Recording in
// hand so a summary prints on the way out.
func runRecord(dir, targets string, every, dur time.Duration) error {
	var urls []string
	for _, u := range strings.Split(targets, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	r := &scrape.Recorder{
		Targets: urls,
		Every:   every,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	rec, err := r.Open(dir)
	if err != nil {
		return err
	}
	defer rec.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if dur > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, dur)
		defer cancel()
	}
	if every <= 0 {
		every = time.Second
	}
	fmt.Fprintf(os.Stderr, "recording %d targets every %v into %s (interrupt to stop)\n",
		len(urls), every, filepath.Join(dir, scrape.FleetDataset))
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		if _, err := rec.Round(); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			fmt.Printf("recorded %d rounds, %d samples into %s\n",
				rec.Rounds(), rec.Samples(), filepath.Join(dir, scrape.FleetDataset))
			return nil
		case <-tick.C:
		}
	}
}

// runFleet loads a flight-recorder dataset and renders the sweep's
// queue-depth and worker-utilization timelines.
func runFleet(dir string) error {
	path := dir
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(dir, scrape.FleetDataset)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	store, err := dataset.Read(f)
	if err != nil {
		return err
	}
	fmt.Printf("fleet recording %s: %d series, %d samples\n\n",
		path, store.SeriesCount(), store.SampleCount())

	engine := &promql.Engine{Store: store}
	ts := sampleTimes(store, dispatch.MetricQueueJobs, dispatch.MetricWorkerCapacity)
	if len(ts) == 0 {
		return fmt.Errorf("no %s or %s samples in %s",
			dispatch.MetricQueueJobs, dispatch.MetricWorkerCapacity, path)
	}
	ts = strideTo(ts, 40)

	states := []string{"queued", "booked", "running", "done", "failed"}
	fmt.Println("queue depth by state (sum over instances):")
	fmt.Printf("%8s", "t(s)")
	for _, s := range states {
		fmt.Printf(" %7s", s)
	}
	fmt.Println()
	for _, t := range ts {
		vec, err := engine.Query(fmt.Sprintf("sum by (state) (%s)", dispatch.MetricQueueJobs), t)
		if err != nil {
			return err
		}
		byState := map[string]float64{}
		for _, s := range vec {
			byState[s.Labels.Get("state")] = s.Value
		}
		fmt.Printf("%8.1f", t.Seconds())
		for _, s := range states {
			fmt.Printf(" %7.0f", byState[s])
		}
		fmt.Println()
	}

	instances := labelValues(store, dispatch.MetricWorkerCapacity, "instance")
	if len(instances) == 0 {
		fmt.Println("\nno worker instances in the recording")
		return nil
	}
	const maxCols = 8
	shown := instances
	if len(shown) > maxCols {
		shown = shown[:maxCols]
	}
	fmt.Println("\nworker utilization (inflight / capacity per instance):")
	fmt.Printf("%8s", "t(s)")
	for _, inst := range shown {
		fmt.Printf(" %*s", colWidth(inst), inst)
	}
	fmt.Println()
	for _, t := range ts {
		// The in-tree promql has no vector/vector division; take the two
		// aggregates and divide here.
		cap, err := perInstance(engine, dispatch.MetricWorkerCapacity, t)
		if err != nil {
			return err
		}
		inf, err := perInstance(engine, dispatch.MetricWorkerInflight, t)
		if err != nil {
			return err
		}
		fmt.Printf("%8.1f", t.Seconds())
		for _, inst := range shown {
			c, ok := cap[inst]
			if !ok || c == 0 {
				fmt.Printf(" %*s", colWidth(inst), "-")
				continue
			}
			fmt.Printf(" %*.0f%%", colWidth(inst)-1, 100*inf[inst]/c)
		}
		fmt.Println()
	}
	if len(instances) > maxCols {
		fmt.Printf("(%d more instances not shown)\n", len(instances)-maxCols)
	}
	return nil
}

// runCritpath loads an exported Chrome trace and prints the critical
// path plus the per-phase latency breakdown.
func runCritpath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := trace.ReadChromeTrace(f)
	if err != nil {
		return err
	}
	a := trace.Analyze(spans)
	a.Report(os.Stdout)
	return nil
}

// sampleTimes collects the sorted union of sample timestamps across the
// given metrics.
func sampleTimes(store *telemetry.Store, metrics ...string) []sim.Time {
	seen := map[sim.Time]bool{}
	for _, m := range metrics {
		for _, s := range store.Select(m) {
			for i := 0; i < s.Len(); i++ {
				seen[s.Sample(i).T] = true
			}
		}
	}
	out := make([]sim.Time, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// strideTo thins a timeline to at most n rows, keeping first and last.
func strideTo(ts []sim.Time, n int) []sim.Time {
	if len(ts) <= n {
		return ts
	}
	out := make([]sim.Time, 0, n)
	for i := 0; i < n-1; i++ {
		out = append(out, ts[i*(len(ts)-1)/(n-1)])
	}
	return append(out, ts[len(ts)-1])
}

// labelValues returns the sorted distinct values of one label across a
// metric's series.
func labelValues(store *telemetry.Store, metric, name string) []string {
	seen := map[string]bool{}
	for _, s := range store.Select(metric) {
		if v := s.Labels.Get(name); v != "" {
			seen[v] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// perInstance evaluates sum by (instance) of a metric at t.
func perInstance(engine *promql.Engine, metric string, t sim.Time) (map[string]float64, error) {
	vec, err := engine.Query(fmt.Sprintf("sum by (instance) (%s)", metric), t)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(vec))
	for _, s := range vec {
		out[s.Labels.Get("instance")] = s.Value
	}
	return out, nil
}

func colWidth(inst string) int {
	if len(inst) < 5 {
		return 5
	}
	return len(inst)
}
