package telemetry

import (
	"math"
	"sort"

	"sapsim/internal/sim"
)

// Sum returns the sum of the window's values in sample order, 0 when empty.
func Sum(w Window) float64 {
	sum := 0.0
	for run := range w.runs {
		for _, v := range run {
			sum += v
		}
	}
	return sum
}

// Mean returns the arithmetic mean of the window, or NaN when empty.
func Mean(w Window) float64 {
	if w.Len() == 0 {
		return math.NaN()
	}
	return Sum(w) / float64(w.Len())
}

// Max returns the maximum value in the window, or NaN when empty.
func Max(w Window) float64 {
	if w.Len() == 0 {
		return math.NaN()
	}
	max := w.col.valueAt(w.lo)
	for run := range w.runs {
		for _, v := range run {
			if v > max {
				max = v
			}
		}
	}
	return max
}

// Min returns the minimum value in the window, or NaN when empty.
func Min(w Window) float64 {
	if w.Len() == 0 {
		return math.NaN()
	}
	min := w.col.valueAt(w.lo)
	for run := range w.runs {
		for _, v := range run {
			if v < min {
				min = v
			}
		}
	}
	return min
}

// Percentile returns the p-th percentile (0..100) of values using linear
// interpolation between order statistics, or NaN when empty. The paper
// reports 95th percentiles throughout (Figs. 8 and 9). It sorts values in
// place: pass Window.Values' copy, or a clone of a slice whose order matters.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sort.Float64s(values)
	p = min(max(p, 0), 100)
	rank := p / 100 * float64(len(values)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return values[lo]
	}
	frac := rank - float64(lo)
	return values[lo]*(1-frac) + values[hi]*frac
}

// DailyStat is one day's aggregate of a series, used for heatmap rows and
// the daily mean/p95/max lines in Figures 8 and 9.
type DailyStat struct {
	Day  int // 0-based day index since the observation epoch
	Mean float64
	Max  float64
	Min  float64
	P95  float64
	N    int // sample count; 0 marks missing data (white heatmap cells)
}

// DailyStats buckets the series into per-day aggregates over days
// [0, days). Days without samples yield N == 0 and NaN statistics.
func DailyStats(s *Series, days int) []DailyStat {
	out := make([]DailyStat, days)
	for d := 0; d < days; d++ {
		from := sim.Time(d) * sim.Day
		to := from + sim.Day
		win := s.Range(from, to)
		st := DailyStat{Day: d, N: win.Len()}
		if win.Len() == 0 {
			st.Mean, st.Max, st.Min, st.P95 = math.NaN(), math.NaN(), math.NaN(), math.NaN()
		} else {
			st.Mean = Mean(win)
			st.Max = Max(win)
			st.Min = Min(win)
			st.P95 = Percentile(win.Values(), 95)
		}
		out[d] = st
	}
	return out
}

// MeanOverRange returns the mean of the series restricted to [from, to), or
// NaN if no samples fall in the window.
func MeanOverRange(s *Series, from, to sim.Time) float64 {
	return Mean(s.Range(from, to))
}
