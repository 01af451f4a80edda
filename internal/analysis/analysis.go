// Package analysis computes the paper's evaluation artifacts from telemetry:
// daily heatmaps (Figs. 5–7, 10–13), CPU ready-time and contention
// aggregates (Figs. 8–9), VM utilization CDFs (Fig. 14), lifetime summaries
// (Fig. 15), and the size classifications of Tables 1–2.
package analysis

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
	"sapsim/internal/vmmodel"
)

// mapSeries fans fn out over the series with a bounded worker pool and
// returns the results in input order, so downstream merges stay
// deterministic regardless of scheduling. Aggregations over the sharded
// store are per-series independent, which makes this the one parallel
// primitive every heatmap and pooled statistic needs.
func mapSeries[T any](series []*telemetry.Series, fn func(*telemetry.Series) T) []T {
	out := make([]T, len(series))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(series) {
		workers = len(series)
	}
	if workers <= 1 {
		for i, s := range series {
			out[i] = fn(s)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(series) {
					return
				}
				out[i] = fn(series[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// Heatmap is one of the paper's daily-average heatmaps: rows are days of
// the observation window, columns are entities (nodes or building blocks)
// sorted from most free to least free resources, as in Figs. 5–7 and 10–13.
// NaN cells mark missing data (white cells: maintenance or churn).
type Heatmap struct {
	Metric  string
	Columns []string
	Days    int
	// Cells[day][col]; NaN = missing.
	Cells [][]float64
}

// Cell returns the value at (day, col).
func (h *Heatmap) Cell(day, col int) float64 { return h.Cells[day][col] }

// ColumnMean returns the across-days mean of a column, ignoring NaN.
func (h *Heatmap) ColumnMean(col int) float64 {
	sum, n := 0.0, 0
	for d := 0; d < h.Days; d++ {
		if v := h.Cells[d][col]; !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Transform maps a raw metric value to the plotted value; FreePercent is
// the one used by every heatmap in the paper (free = 100 − used).
// Transforms must be pure (safe for concurrent use): DailyHeatmap and
// TopKByMax apply them from parallel workers.
type Transform func(float64) float64

// FreePercent converts a utilization percentage to free percentage.
func FreePercent(v float64) float64 { return 100 - v }

// Identity returns v unchanged.
func Identity(v float64) float64 { return v }

// DailyHeatmap builds a heatmap of daily means of the metric, one column
// per distinct value of entityLabel, sorted by descending overall mean
// (most free first, matching the paper's column order).
func DailyHeatmap(q telemetry.Querier, metric, entityLabel string, days int, tf Transform, matchers ...telemetry.Matcher) *Heatmap {
	series := q.Select(metric, matchers...)
	perSeries := mapSeries(series, func(s *telemetry.Series) *heatmapColumn {
		name := s.Labels.Get(entityLabel)
		if name == "" {
			return nil
		}
		stats := telemetry.DailyStats(s, days)
		cells := make([]float64, days)
		sum, n := 0.0, 0
		for d, st := range stats {
			if st.N == 0 {
				cells[d] = math.NaN()
				continue
			}
			v := tf(st.Mean)
			cells[d] = v
			sum += v
			n++
		}
		mean := math.NaN()
		if n > 0 {
			mean = sum / float64(n)
		}
		return &heatmapColumn{name: name, cells: cells, mean: mean}
	})
	cols := make([]heatmapColumn, 0, len(perSeries))
	for _, c := range perSeries {
		if c != nil {
			cols = append(cols, *c)
		}
	}
	return assembleHeatmap(metric, days, cols)
}

// GroupedHeatmap aggregates node-level series into group-level columns
// (e.g. building blocks, Fig. 6) by averaging the daily means of member
// series. groupOf maps an entity name to its group ("" skips the series).
func GroupedHeatmap(q telemetry.Querier, metric, entityLabel string, days int, tf Transform, groupOf func(string) string) *Heatmap {
	// Resolve group membership sequentially first (groupOf is caller
	// code and not assumed goroutine-safe), so the parallel stats pass
	// only touches series that survive the filter.
	var (
		kept       []*telemetry.Series
		keptGroups []string
	)
	for _, s := range q.Select(metric) {
		entity := s.Labels.Get(entityLabel)
		if entity == "" {
			continue
		}
		g := groupOf(entity)
		if g == "" {
			continue
		}
		kept = append(kept, s)
		keptGroups = append(keptGroups, g)
	}
	// Per-series daily stats in parallel; the group merge below runs
	// sequentially in series order, keeping float accumulation
	// deterministic.
	perSeries := mapSeries(kept, func(s *telemetry.Series) []telemetry.DailyStat {
		return telemetry.DailyStats(s, days)
	})
	type agg struct {
		sum []float64
		n   []int
	}
	groups := map[string]*agg{}
	var groupOrder []string
	for i := range kept {
		g := keptGroups[i]
		a, ok := groups[g]
		if !ok {
			a = &agg{sum: make([]float64, days), n: make([]int, days)}
			groups[g] = a
			groupOrder = append(groupOrder, g)
		}
		for d, st := range perSeries[i] {
			if st.N == 0 {
				continue
			}
			a.sum[d] += tf(st.Mean)
			a.n[d]++
		}
	}
	cols := make([]heatmapColumn, 0, len(groups))
	for _, name := range groupOrder {
		a := groups[name]
		cells := make([]float64, days)
		total, cnt := 0.0, 0
		for d := 0; d < days; d++ {
			if a.n[d] == 0 {
				cells[d] = math.NaN()
				continue
			}
			cells[d] = a.sum[d] / float64(a.n[d])
			total += cells[d]
			cnt++
		}
		mean := math.NaN()
		if cnt > 0 {
			mean = total / float64(cnt)
		}
		cols = append(cols, heatmapColumn{name: name, cells: cells, mean: mean})
	}
	return assembleHeatmap(metric, days, cols)
}

// heatmapColumn is one heatmap column under assembly: its per-day cells
// (NaN = missing) and their mean, which orders the columns.
type heatmapColumn struct {
	name  string
	cells []float64
	mean  float64
}

// assembleHeatmap orders the columns by descending mean — NaN means last,
// ties by name — and lays their cells out day-major.
func assembleHeatmap(metric string, days int, cols []heatmapColumn) *Heatmap {
	sort.Slice(cols, func(i, j int) bool {
		mi, mj := cols[i].mean, cols[j].mean
		switch {
		case math.IsNaN(mi) && math.IsNaN(mj):
			return cols[i].name < cols[j].name
		case math.IsNaN(mi):
			return false
		case math.IsNaN(mj):
			return true
		case mi != mj:
			return mi > mj
		default:
			return cols[i].name < cols[j].name
		}
	})
	h := &Heatmap{Metric: metric, Days: days}
	for _, c := range cols {
		h.Columns = append(h.Columns, c.name)
	}
	h.Cells = make([][]float64, days)
	for d := 0; d < days; d++ {
		h.Cells[d] = make([]float64, len(cols))
		for i, c := range cols {
			h.Cells[d][i] = c.cells[d]
		}
	}
	return h
}

// NodeStat is one node's aggregate over the full window (Fig. 8 bars).
type NodeStat struct {
	Node string
	Max  float64
	P95  float64
	Mean float64
}

// TopKByMax returns the k nodes with the highest maximum of the metric
// across the window, with per-node max/p95/mean — Figure 8's aggregation
// (values converted by tf, e.g. ms → s).
func TopKByMax(q telemetry.Querier, metric, entityLabel string, k int, tf Transform) []NodeStat {
	perSeries := mapSeries(q.Select(metric), func(s *telemetry.Series) *NodeStat {
		name := s.Labels.Get(entityLabel)
		if name == "" || s.Len() == 0 {
			return nil
		}
		all := s.All()
		return &NodeStat{
			Node: name,
			Max:  tf(telemetry.Max(all)),
			P95:  tf(telemetry.Percentile(all.Values(), 95)),
			Mean: tf(telemetry.Mean(all)),
		}
	})
	stats := make([]NodeStat, 0, len(perSeries))
	for _, s := range perSeries {
		if s != nil {
			stats = append(stats, *s)
		}
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Max != stats[j].Max {
			return stats[i].Max > stats[j].Max
		}
		return stats[i].Node < stats[j].Node
	})
	if k > 0 && len(stats) > k {
		stats = stats[:k]
	}
	return stats
}

// DailyAggregate is one day's pooled statistic over all entities (Fig. 9
// lines: mean, p95, max of contention over all nodes).
type DailyAggregate struct {
	Day  int
	Mean float64
	P95  float64
	Max  float64
	N    int
}

// DailyPooled pools every series of the metric per day and reports
// mean/p95/max across all samples of all entities.
func DailyPooled(q telemetry.Querier, metric string, days int) []DailyAggregate {
	series := q.Select(metric)
	// Slice each series into its per-day windows in parallel (index
	// arithmetic, no copying); pools are then concatenated in series order
	// so the float accumulation is deterministic.
	windows := mapSeries(series, func(s *telemetry.Series) []telemetry.Window {
		win := make([]telemetry.Window, days)
		for d := 0; d < days; d++ {
			from := sim.Time(d) * sim.Day
			win[d] = s.Range(from, from+sim.Day)
		}
		return win
	})
	// One buffer, sized for the fullest day, serves every day: Percentile
	// sorts it in place after the order-dependent mean has been taken.
	fullest := 0
	for d := 0; d < days; d++ {
		n := 0
		for i := range series {
			n += windows[i][d].Len()
		}
		fullest = max(fullest, n)
	}
	pool := make([]float64, 0, fullest)
	out := make([]DailyAggregate, days)
	for d := 0; d < days; d++ {
		pool = pool[:0]
		for i := range series {
			pool = windows[i][d].AppendValues(pool)
		}
		a := DailyAggregate{Day: d, N: len(pool)}
		if len(pool) == 0 {
			a.Mean, a.P95, a.Max = math.NaN(), math.NaN(), math.NaN()
		} else {
			sum, max := 0.0, pool[0]
			for _, v := range pool {
				sum += v
				if v > max {
					max = v
				}
			}
			a.Mean = sum / float64(len(pool))
			a.Max = max
			a.P95 = telemetry.Percentile(pool, 95)
		}
		out[d] = a
	}
	return out
}

// CDF is an empirical distribution: sorted values with cumulative
// probabilities (Fig. 14).
type CDF struct {
	Values []float64 // sorted ascending
}

// NewCDF builds a CDF from raw values (NaN dropped).
func NewCDF(values []float64) *CDF {
	vs := make([]float64, 0, len(values))
	for _, v := range values {
		if !math.IsNaN(v) {
			vs = append(vs, v)
		}
	}
	sort.Float64s(vs)
	return &CDF{Values: vs}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.Values) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.Values, x)
	// Advance over equal values to get P(X <= x), not P(X < x).
	for i < len(c.Values) && c.Values[i] <= x {
		i++
	}
	return float64(i) / float64(len(c.Values))
}

// Quantile returns the q-th quantile (0..1).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.Values) == 0 {
		return math.NaN()
	}
	return telemetry.Percentile(c.Values, q*100)
}

// Utilization thresholds from Sec. 5.5: under-utilized below 70%, optimal
// 70–85%, over-utilized above 85%.
const (
	UnderThreshold = 0.70
	OverThreshold  = 0.85
)

// UtilizationSplit classifies a population of mean usage ratios.
type UtilizationSplit struct {
	Under, Optimal, Over float64 // fractions, sum to 1
	N                    int
}

// SplitUtilization applies the paper's thresholds to a CDF of usage ratios.
func SplitUtilization(c *CDF) UtilizationSplit {
	n := len(c.Values)
	if n == 0 {
		return UtilizationSplit{}
	}
	under := c.At(UnderThreshold - 1e-12)
	upTo85 := c.At(OverThreshold)
	return UtilizationSplit{
		Under:   under,
		Optimal: upTo85 - under,
		Over:    1 - upTo85,
		N:       n,
	}
}

// VMMeanUsage computes each VM's mean usage ratio over the window from the
// vROps VM metrics and returns the population CDF (Fig. 14).
func VMMeanUsage(q telemetry.Querier, metric string, from, to sim.Time) *CDF {
	perSeries := mapSeries(q.Select(metric), func(s *telemetry.Series) float64 {
		return telemetry.MeanOverRange(s, from, to)
	})
	means := make([]float64, 0, len(perSeries))
	for _, m := range perSeries {
		if !math.IsNaN(m) {
			means = append(means, m)
		}
	}
	return NewCDF(means)
}

// LifetimeRecord pairs a flavor with an observed lifetime (Fig. 15 input).
type LifetimeRecord struct {
	Flavor   *vmmodel.Flavor
	Lifetime sim.Time
}

// FlavorLifetime is one Fig. 15 bar: a flavor's mean observed lifetime and
// instance count, plus its size classes for grouping.
type FlavorLifetime struct {
	Flavor    *vmmodel.Flavor
	Count     int
	MeanHours float64
	VCPUClass vmmodel.SizeClass
	RAMClass  vmmodel.SizeClass
}

// LifetimeByFlavor aggregates lifetimes per flavor, dropping flavors with
// fewer than minCount instances (the paper uses 30). Results are sorted by
// (VCPUClass, mean) to match Fig. 15a's grouping.
func LifetimeByFlavor(records []LifetimeRecord, minCount int) []FlavorLifetime {
	type acc struct {
		sum float64
		n   int
	}
	byFlavor := map[*vmmodel.Flavor]*acc{}
	for _, r := range records {
		a, ok := byFlavor[r.Flavor]
		if !ok {
			a = &acc{}
			byFlavor[r.Flavor] = a
		}
		a.sum += r.Lifetime.Hours()
		a.n++
	}
	var out []FlavorLifetime
	for f, a := range byFlavor {
		if a.n < minCount {
			continue
		}
		out = append(out, FlavorLifetime{
			Flavor:    f,
			Count:     a.n,
			MeanHours: a.sum / float64(a.n),
			VCPUClass: f.VCPUClass(),
			RAMClass:  f.RAMClass(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].VCPUClass != out[j].VCPUClass {
			return out[i].VCPUClass < out[j].VCPUClass
		}
		if out[i].MeanHours != out[j].MeanHours {
			return out[i].MeanHours < out[j].MeanHours
		}
		return out[i].Flavor.Name < out[j].Flavor.Name
	})
	return out
}

// MedianLifetimeHours returns the population median lifetime (the "Median:
// 1w" line in Fig. 15).
func MedianLifetimeHours(records []LifetimeRecord) float64 {
	if len(records) == 0 {
		return math.NaN()
	}
	vals := make([]float64, len(records))
	for i, r := range records {
		vals[i] = r.Lifetime.Hours()
	}
	return telemetry.Percentile(vals, 50)
}

// ClassCount tallies a VM population by size class (Tables 1 and 2).
func ClassCount(vms []*vmmodel.VM, classify func(*vmmodel.Flavor) vmmodel.SizeClass) map[vmmodel.SizeClass]int {
	out := make(map[vmmodel.SizeClass]int)
	for _, vm := range vms {
		out[classify(vm.Flavor)]++
	}
	return out
}

// StorageDistribution summarizes Fig. 13's headline numbers from per-node
// window means of *free* storage percentage: the fraction of hosts with
// more than 90% free, and the fraction using more than 30%.
type StorageDistribution struct {
	FracAbove90Free float64
	FracAbove30Used float64
	N               int
}

// StorageSummary computes the distribution from a free-storage heatmap.
func StorageSummary(h *Heatmap) StorageDistribution {
	var d StorageDistribution
	for c := range h.Columns {
		mean := h.ColumnMean(c)
		if math.IsNaN(mean) {
			continue
		}
		d.N++
		if mean > 90 {
			d.FracAbove90Free++
		}
		if mean < 70 { // <70% free ⇔ >30% used
			d.FracAbove30Used++
		}
	}
	if d.N > 0 {
		d.FracAbove90Free /= float64(d.N)
		d.FracAbove30Used /= float64(d.N)
	}
	return d
}
