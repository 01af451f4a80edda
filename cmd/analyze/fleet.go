// Trace modes: both read the Chrome trace that sweep -trace and dispatchd
// -trace export. -critpath prints the sweep's critical path and per-phase
// latency breakdown; -fleet prints its queue-depth and per-worker lease
// timelines.
package main

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"sapsim/internal/trace"
)

// readTrace loads the spans of an exported Chrome trace.
func readTrace(path string) ([]trace.Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadChromeTrace(f)
}

// runFleet renders a trace's queue-depth and per-worker lease timelines
// at every span boundary. At an instant, a cell is leased while one of its
// attempt spans covers it; done or failed once its last attempt has ended
// with that outcome; and queued otherwise.
func runFleet(w io.Writer, path string) error {
	spans, err := readTrace(path)
	if err != nil {
		return err
	}
	var attempts []trace.Span
	last := map[string]trace.Span{} // each cell's last attempt
	cells, workers := map[string]bool{}, map[string]bool{}
	var ts []int64
	for _, s := range spans {
		if s.Name != "cell" && s.Name != "attempt" {
			continue
		}
		cells[s.Trace] = true
		ts = append(ts, s.Start, s.End)
		if s.Name == "attempt" {
			attempts = append(attempts, s)
			last[s.Trace] = s // spans sort by start within a trace
			workers[s.Attrs["worker"]] = true
		}
	}
	if len(attempts) == 0 {
		return fmt.Errorf("%s: no attempt spans", path)
	}
	slices.Sort(ts)
	ts = strideTo(slices.Compact(ts), 40)
	origin := ts[0]
	names := make([]string, 0, len(workers))
	for wk := range workers {
		names = append(names, wk)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "fleet timeline %s: %d cells, %d attempts, %d workers\n\n",
		path, len(cells), len(attempts), len(names))

	states := []string{"queued", "leased", "done", "failed"}
	fmt.Fprintln(w, "queue depth by state:")
	fmt.Fprintf(w, "%9s", "t(s)")
	for _, s := range states {
		fmt.Fprintf(w, " %7s", s)
	}
	fmt.Fprintln(w)
	for _, t := range ts {
		n := map[string]int{}
		for _, a := range attempts {
			if a.Start <= t && t < a.End {
				n["leased"]++
			}
		}
		for _, a := range last {
			if a.End <= t && (a.Attrs["outcome"] == "done" || a.Attrs["outcome"] == "failed") {
				n[a.Attrs["outcome"]]++
			}
		}
		n["queued"] = len(cells) - n["leased"] - n["done"] - n["failed"]
		fmt.Fprintf(w, "%9.3f", seconds(t-origin))
		for _, s := range states {
			fmt.Fprintf(w, " %7d", n[s])
		}
		fmt.Fprintln(w)
	}

	const maxCols = 8
	shown := names[:min(len(names), maxCols)]
	fmt.Fprintln(w, "\nleased cells per worker:")
	fmt.Fprintf(w, "%9s", "t(s)")
	for _, wk := range shown {
		fmt.Fprintf(w, " %*s", colWidth(wk), wk)
	}
	fmt.Fprintln(w)
	for _, t := range ts {
		held := map[string]int{}
		for _, a := range attempts {
			if a.Start <= t && t < a.End {
				held[a.Attrs["worker"]]++
			}
		}
		fmt.Fprintf(w, "%9.3f", seconds(t-origin))
		for _, wk := range shown {
			fmt.Fprintf(w, " %*d", colWidth(wk), held[wk])
		}
		fmt.Fprintln(w)
	}
	if len(names) > maxCols {
		fmt.Fprintf(w, "(%d more workers not shown)\n", len(names)-maxCols)
	}
	return nil
}

// runCritpath loads an exported Chrome trace and prints the critical
// path plus the per-phase latency breakdown.
func runCritpath(w io.Writer, path string) error {
	spans, err := readTrace(path)
	if err != nil {
		return err
	}
	trace.Analyze(spans).Report(w)
	return nil
}

// strideTo thins a timeline to at most n rows, keeping first and last.
func strideTo(ts []int64, n int) []int64 {
	if len(ts) <= n {
		return ts
	}
	out := make([]int64, 0, n)
	for i := 0; i < n-1; i++ {
		out = append(out, ts[i*(len(ts)-1)/(n-1)])
	}
	return append(out, ts[len(ts)-1])
}

// seconds converts a span-time difference (microseconds) to seconds.
func seconds(micros int64) float64 { return float64(micros) / 1e6 }

func colWidth(name string) int {
	if len(name) < 5 {
		return 5
	}
	return len(name)
}
