package analysis

import (
	"math"
	"testing"

	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

func TestWeekdayMapping(t *testing.T) {
	// Epoch 2024-07-31 is a Wednesday (weekday index 2).
	if weekdayOf(0) != 2 {
		t.Errorf("day 0 weekday = %d, want 2 (Wednesday)", weekdayOf(0))
	}
	// 2024-08-03 (day 3) is a Saturday, 08-04 a Sunday.
	if !IsWeekend(3) || !IsWeekend(4) {
		t.Error("days 3/4 should be the first weekend")
	}
	if IsWeekend(2) || IsWeekend(5) {
		t.Error("Friday/Monday misclassified")
	}
	// One week later.
	if !IsWeekend(10) || !IsWeekend(11) {
		t.Error("days 10/11 should be the second weekend")
	}
}

func TestWeekdayWeekendEffect(t *testing.T) {
	st := telemetry.NewStore()
	l := telemetry.MustLabels("hostsystem", "n1")
	for d := 0; d < 14; d++ {
		v := 100.0
		if IsWeekend(d) {
			v = 60
		}
		if err := st.Append("load", l, sim.Time(d)*sim.Day+sim.Hour, v); err != nil {
			t.Fatal(err)
		}
	}
	e := WeekdayWeekendEffect(st, "load", 14)
	if e.WeekdayMean != 100 || e.WeekendMean != 60 {
		t.Errorf("means = %v / %v", e.WeekdayMean, e.WeekendMean)
	}
	if math.Abs(e.Dip-0.4) > 1e-9 {
		t.Errorf("dip = %v, want 0.4", e.Dip)
	}
	if e.WeekdayDays != 10 || e.WeekendDays != 4 {
		t.Errorf("day counts = %d / %d", e.WeekdayDays, e.WeekendDays)
	}
}

func TestWeekEffectEmpty(t *testing.T) {
	e := WeekdayWeekendEffect(telemetry.NewStore(), "none", 7)
	if !math.IsNaN(e.WeekdayMean) || !math.IsNaN(e.Dip) {
		t.Errorf("empty effect = %+v", e)
	}
}
