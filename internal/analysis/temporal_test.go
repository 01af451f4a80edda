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

// seriesOf returns a series holding vals at start, start+step, …, read back
// from a store of its own.
func seriesOf(t testing.TB, start, step sim.Time, vals ...float64) *telemetry.Series {
	t.Helper()
	st := telemetry.NewStore()
	for i, v := range vals {
		if err := st.Append("m", telemetry.Labels{}, start+sim.Time(i)*step, v); err != nil {
			t.Fatal(err)
		}
	}
	if len(vals) == 0 {
		return &telemetry.Series{}
	}
	return st.Select("m")[0]
}

func TestDetectShifts(t *testing.T) {
	// Level 80 for 5 days, abrupt drop to 20 (a termination), then flat.
	vals := make([]float64, 10*24)
	for i := range vals {
		vals[i] = 80
		if i >= 5*24 {
			vals[i] = 20
		}
	}
	s := seriesOf(t, 0, sim.Hour, vals...)
	shifts := DetectShifts(s, sim.Day, 30)
	if len(shifts) != 1 {
		t.Fatalf("shifts = %d, want 1: %+v", len(shifts), shifts)
	}
	sh := shifts[0]
	if sh.Delta() > -50 {
		t.Errorf("delta = %v, want ≈-60", sh.Delta())
	}
	// The detected instant should be near day 5.
	if sh.At < 4*sim.Day || sh.At > 6*sim.Day {
		t.Errorf("shift at %v, want ≈5d", sh.At)
	}
}

func TestDetectShiftsNoneOnFlat(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 50
	}
	s := seriesOf(t, 0, sim.Hour, vals...)
	if got := DetectShifts(s, sim.Day, 10); len(got) != 0 {
		t.Errorf("flat series produced shifts: %v", got)
	}
	if DetectShifts(&telemetry.Series{}, sim.Day, 10) != nil {
		t.Error("empty series should return nil")
	}
	if DetectShifts(s, 0, 10) != nil {
		t.Error("zero window should return nil")
	}
}

func TestDetectShiftsMergesRamp(t *testing.T) {
	// One monotone transition spread over hours must collapse into one
	// detection, not one per scan step.
	vals := make([]float64, 6*24)
	for i := range vals {
		vals[i] = 20
		switch {
		case i >= 3*24:
			vals[i] = 90
		case i >= 3*24-6:
			vals[i] = 20 + float64(i-(3*24-6))*10
		}
	}
	s := seriesOf(t, 0, sim.Hour, vals...)
	shifts := DetectShifts(s, sim.Day, 30)
	if len(shifts) != 1 {
		t.Errorf("ramp detections = %d, want 1 (merged): %+v", len(shifts), shifts)
	}
}

func TestAutocorrelation(t *testing.T) {
	// A period-7 sawtooth correlates strongly at lag 7, weakly at lag 3.
	var vals []float64
	for i := 0; i < 70; i++ {
		vals = append(vals, float64(i%7))
	}
	if ac := Autocorrelation(vals, 7); ac < 0.9 {
		t.Errorf("lag-7 autocorrelation = %v, want ≈1", ac)
	}
	if ac := Autocorrelation(vals, 3); ac > 0.5 {
		t.Errorf("lag-3 autocorrelation = %v, want low", ac)
	}
	if !math.IsNaN(Autocorrelation(vals, 0)) || !math.IsNaN(Autocorrelation(vals, 100)) {
		t.Error("invalid lag should be NaN")
	}
	if !math.IsNaN(Autocorrelation([]float64{5, 5, 5}, 1)) {
		t.Error("constant series should be NaN (zero variance)")
	}
}
