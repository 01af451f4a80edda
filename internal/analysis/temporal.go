package analysis

import (
	"math"

	"sapsim/internal/telemetry"
)

// The weekly pattern behind the paper's ready-time observation: "less
// workload and thus less contention on weekends and more during the working
// days" (Fig. 8 discussion).

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
func WeekdayWeekendEffect(q *telemetry.Store, metric string, days int) WeekEffect {
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
