package main

import (
	"fmt"
	"io"
	"slices"
)

// metricValue and resultLine are the last line of standard output, in the
// form the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// catalog returns the metrics a run reports: the per-layer ones when
// traced, the end-to-end ones otherwise.
func catalog(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}

func (r *result) line() resultLine {
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range catalog(r.traced) {
		line.Metrics[m.Name] = metricValue{r.metrics[m.Name], m.Unit}
	}
	return line
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d: %d set-ups, %d untraced reps, %d traced reps, %d operations per rep, %d checks, %d failed\n",
		r.workload, r.seed, len(r.setup), len(r.reps), len(r.tracedReps), r.reps[0].ops, r.attempted, r.failed)
	walls := append(perOp(r.reps), perOp(r.tracedReps)...)
	fmt.Fprintf(w, "  op wall over all %d reps: min %.3f ms, median %.3f ms, p90 %.3f ms (0: too few reps for one), max %.3f ms\n",
		len(walls), slices.Min(walls), median(walls), p90(walls), slices.Max(walls))
	for _, m := range catalog(r.traced) {
		exact := ""
		if m.Exact {
			exact = "  (exact)"
		}
		fmt.Fprintf(w, "  %-36s %16.6g %-6s%s\n", m.Name, r.metrics[m.Name], m.Unit, exact)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
}
