package analysis

import (
	"math"

	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

// Temporal analyses backing two observations in the paper: ready time shows
// "less workload and thus less contention on weekends and more during the
// working days" (Fig. 8 discussion), and memory heatmaps show "significant
// and abrupt shifts from high to low memory utilization ... caused by VM
// migrations, shutdowns, or terminations" (Fig. 10 discussion).

// weekdayOf maps a day index since the epoch (2024-07-31, a Wednesday) to
// 0=Monday … 6=Sunday.
func weekdayOf(day int) int { return (2 + day) % 7 }

// IsWeekend reports whether the day index falls on Saturday or Sunday.
func IsWeekend(day int) bool {
	wd := weekdayOf(day)
	return wd == 5 || wd == 6
}

// WeekEffect quantifies the weekday/weekend demand difference of a metric.
type WeekEffect struct {
	WeekdayMean float64
	WeekendMean float64
	// Dip is the relative weekend reduction: 1 - weekend/weekday.
	Dip float64
	// WeekdayDays and WeekendDays count contributing days.
	WeekdayDays, WeekendDays int
}

// WeekdayWeekendEffect pools all series of a metric per day and compares
// weekday and weekend means.
func WeekdayWeekendEffect(q telemetry.Querier, metric string, days int) WeekEffect {
	daily := DailyPooled(q, metric, days)
	var e WeekEffect
	wdSum, weSum := 0.0, 0.0
	for _, d := range daily {
		if d.N == 0 || math.IsNaN(d.Mean) {
			continue
		}
		if IsWeekend(d.Day) {
			weSum += d.Mean
			e.WeekendDays++
		} else {
			wdSum += d.Mean
			e.WeekdayDays++
		}
	}
	if e.WeekdayDays > 0 {
		e.WeekdayMean = wdSum / float64(e.WeekdayDays)
	} else {
		e.WeekdayMean = math.NaN()
	}
	if e.WeekendDays > 0 {
		e.WeekendMean = weSum / float64(e.WeekendDays)
	} else {
		e.WeekendMean = math.NaN()
	}
	if e.WeekdayMean != 0 && !math.IsNaN(e.WeekdayMean) && !math.IsNaN(e.WeekendMean) {
		e.Dip = 1 - e.WeekendMean/e.WeekdayMean
	} else {
		e.Dip = math.NaN()
	}
	return e
}

// Shift is one abrupt level change in a series.
type Shift struct {
	At sim.Time
	// Before and After are the window means either side of the change.
	Before, After float64
}

// Delta reports the signed level change.
func (s Shift) Delta() float64 { return s.After - s.Before }

// DetectShifts finds abrupt level changes: instants where the mean of the
// following window differs from the mean of the preceding window by more
// than threshold. Windows are non-overlapping scans stepped by half a
// window; consecutive detections are merged into the largest one.
func DetectShifts(s *telemetry.Series, window sim.Time, threshold float64) []Shift {
	final, ok := s.Last()
	if window <= 0 || !ok {
		return nil
	}
	var shifts []Shift
	start := s.Sample(0).T
	end := final.T
	step := window / 2
	if step <= 0 {
		step = window
	}
	var last *Shift
	for t := start + window; t+window <= end; t += step {
		before := telemetry.Mean(s.Range(t-window, t))
		after := telemetry.Mean(s.Range(t, t+window))
		if math.IsNaN(before) || math.IsNaN(after) {
			continue
		}
		if math.Abs(after-before) < threshold {
			last = nil
			continue
		}
		if last != nil && sameSign(last.Delta(), after-before) {
			// Extend the ongoing shift if it grew.
			if math.Abs(after-before) > math.Abs(last.Delta()) {
				last.At = t
				last.Before = before
				last.After = after
			}
			continue
		}
		shifts = append(shifts, Shift{At: t, Before: before, After: after})
		last = &shifts[len(shifts)-1]
	}
	return shifts
}

func sameSign(a, b float64) bool { return (a >= 0) == (b >= 0) }

// Autocorrelation computes the lag-k autocorrelation of a value series,
// the statistic behind "the data is consistent across the observed period"
// (Fig. 9) versus visible weekly patterns (Fig. 8).
func Autocorrelation(values []float64, lag int) float64 {
	n := len(values)
	if lag <= 0 || lag >= n {
		return math.NaN()
	}
	mean := 0.0
	for _, v := range values {
		mean += v
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		d := values[i] - mean
		den += d * d
		if i+lag < n {
			num += d * (values[i+lag] - mean)
		}
	}
	if den == 0 {
		return math.NaN()
	}
	return num / den
}
