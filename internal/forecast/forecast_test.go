package forecast

import (
	"errors"
	"math"
	"testing"

	"sapsim/internal/exporter"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
	"sapsim/internal/workload"
)

// EWMA is an exponentially weighted moving average. The zero value is not
// usable; construct with NewEWMA.
type EWMA struct {
	alpha float64
	value float64
	n     int
}

// NewEWMA creates an EWMA with smoothing factor alpha in (0, 1]; larger
// alpha weights recent observations more.
func NewEWMA(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, errors.New("forecast: alpha must be in (0, 1]")
	}
	return &EWMA{alpha: alpha}, nil
}

// Observe feeds one observation.
func (e *EWMA) Observe(v float64) {
	if e.n == 0 {
		e.value = v
	} else {
		e.value = e.alpha*v + (1-e.alpha)*e.value
	}
	e.n++
}

// Value returns the current smoothed estimate (NaN before any observation).
func (e *EWMA) Value() float64 {
	if e.n == 0 {
		return math.NaN()
	}
	return e.value
}

// N reports the number of observations.
func (e *EWMA) N() int { return e.n }

func TestEWMAValidation(t *testing.T) {
	for _, alpha := range []float64{0, -0.5, 1.5} {
		if _, err := NewEWMA(alpha); err == nil {
			t.Errorf("alpha %v accepted", alpha)
		}
	}
	e, err := NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(e.Value()) {
		t.Error("empty EWMA should be NaN")
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e, _ := NewEWMA(0.3)
	for i := 0; i < 100; i++ {
		e.Observe(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Errorf("EWMA of constant = %v", e.Value())
	}
	if e.N() != 100 {
		t.Errorf("N = %d", e.N())
	}
}

func TestEWMATracksShift(t *testing.T) {
	e, _ := NewEWMA(0.5)
	for i := 0; i < 20; i++ {
		e.Observe(10)
	}
	for i := 0; i < 20; i++ {
		e.Observe(50)
	}
	if math.Abs(e.Value()-50) > 0.01 {
		t.Errorf("EWMA after shift = %v, want ≈50", e.Value())
	}
}

func TestHoltWintersValidation(t *testing.T) {
	if _, err := NewHoltWinters(0, 0.1, 0.1, 10); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := NewHoltWinters(0.5, 2, 0.1, 10); err == nil {
		t.Error("beta 2 accepted")
	}
	if _, err := NewHoltWinters(0.5, 0.1, 0.1, 1); err == nil {
		t.Error("period 1 accepted")
	}
}

// A pure sinusoid with period 24 must be predicted accurately one season
// ahead once warmed up.
func TestHoltWintersSeasonalSeries(t *testing.T) {
	h, err := NewHoltWinters(0.3, 0.05, 0.4, 24)
	if err != nil {
		t.Fatal(err)
	}
	value := func(i int) float64 {
		return 50 + 20*math.Sin(2*math.Pi*float64(i)/24)
	}
	for i := 0; i < 24*10; i++ {
		h.Observe(value(i))
	}
	if !h.Ready() {
		t.Fatal("model not ready after 10 periods")
	}
	for steps := 1; steps <= 24; steps++ {
		want := value(24*10 + steps - 1)
		got := h.Forecast(steps)
		if math.Abs(got-want) > 3 {
			t.Errorf("forecast %d ahead = %.2f, want %.2f", steps, got, want)
		}
	}
}

func TestHoltWintersTrend(t *testing.T) {
	h, _ := NewHoltWinters(0.5, 0.3, 0.1, 4)
	for i := 0; i < 200; i++ {
		h.Observe(float64(i)) // linear ramp
	}
	got := h.Forecast(10)
	if math.Abs(got-209) > 5 {
		t.Errorf("trend forecast = %v, want ≈209", got)
	}
}

func TestHoltWintersNotReady(t *testing.T) {
	h, _ := NewHoltWinters(0.3, 0.1, 0.1, 24)
	h.Observe(1)
	if h.Ready() {
		t.Error("ready after one sample")
	}
	if !math.IsNaN(h.Forecast(1)) {
		t.Error("forecast before ready should be NaN")
	}
	for i := 0; i < 30; i++ {
		h.Observe(1)
	}
	if !math.IsNaN(h.Forecast(0)) {
		t.Error("zero-step forecast should be NaN")
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

// The workload generator's diurnal profiles must be predictable: MAE of the
// seasonal model should clearly beat a naive flat prediction.
func TestHoltWintersBeatsNaiveOnWorkloadProfile(t *testing.T) {
	p := &workload.Profile{
		Seed: 9, MeanCPU: 0.4, DiurnalAmp: 0.35, WeekendDip: 0.0,
		NoiseAmp: 0.05,
	}
	const step = 30 * sim.Minute
	var vals []float64
	for ts := sim.Time(0); ts < 10*sim.Day; ts += step {
		vals = append(vals, p.UsageAt(ts).CPU)
	}
	s := seriesOf(t, 0, step, vals...)
	period := int(sim.Day / step)
	h, _ := NewHoltWinters(0.3, 0.02, 0.3, period)
	mae := MAE(h, s)

	// Naive: predict the running mean.
	e, _ := NewEWMA(0.05)
	naive, n := 0.0, 0
	for i := 0; i < s.Len(); i++ {
		smp := s.Sample(i)
		if e.N() > period {
			naive += math.Abs(e.Value() - smp.V)
			n++
		}
		e.Observe(smp.V)
	}
	naive /= float64(n)

	if mae >= naive {
		t.Errorf("seasonal MAE %.4f not better than naive %.4f", mae, naive)
	}
}

func TestFitSeries(t *testing.T) {
	vals := make([]float64, 48)
	for i := range vals {
		vals[i] = float64(i % 24)
	}
	s := seriesOf(t, 0, sim.Hour, vals...)
	h, _ := NewHoltWinters(0.3, 0.05, 0.3, 24)
	h.FitSeries(s)
	if !h.Ready() {
		t.Error("model not ready after FitSeries")
	}
}

func TestDynamicOvercommit(t *testing.T) {
	// Population demanding at most ~25% of its allocation → ratio ≈
	// 1/(0.25×1.2) ≈ 3.3.
	var ratios []float64
	for i := 0; i < 1000; i++ {
		ratios = append(ratios, 0.05+float64(i%20)*0.01) // 0.05..0.24
	}
	rec, err := DynamicOvercommit(ratios, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Ratio < 3.0 || rec.Ratio > 4.0 {
		t.Errorf("recommended ratio = %.2f, want ≈3.3", rec.Ratio)
	}
	if rec.PeakDemandRatio < 0.23 || rec.PeakDemandRatio > 0.25 {
		t.Errorf("peak = %v", rec.PeakDemandRatio)
	}
}

func TestDynamicOvercommitClamps(t *testing.T) {
	// Fully saturated VMs → no overcommit.
	rec, err := DynamicOvercommit([]float64{1, 1, 1, 1}, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Ratio != 1 {
		t.Errorf("saturated ratio = %v, want 1", rec.Ratio)
	}
	// Nearly idle VMs → capped at 8.
	rec, err = DynamicOvercommit([]float64{0.01, 0.01}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Ratio != 8 {
		t.Errorf("idle ratio = %v, want 8 (clamped)", rec.Ratio)
	}
	// Headroom below 1 is raised to 1.
	rec, _ = DynamicOvercommit([]float64{0.5}, 0.1)
	if rec.Headroom != 1 {
		t.Errorf("headroom = %v, want 1", rec.Headroom)
	}
	if _, err := DynamicOvercommit(nil, 1); err == nil {
		t.Error("empty input accepted")
	}
}

func TestMAEEmptySeries(t *testing.T) {
	h, _ := NewHoltWinters(0.3, 0.1, 0.1, 4)
	if !math.IsNaN(MAE(h, &telemetry.Series{})) {
		t.Error("MAE of empty series should be NaN")
	}
}

func TestRecommendOvercommit(t *testing.T) {
	// Two VMs at 20% and 60% of their vCPUs: each instant's aggregate
	// demand is 40%, so 1/(0.4×1.25) = 2:1 — not the 1.33:1 the busier VM's
	// own tail would give. Other metrics do not count.
	store := telemetry.NewStore()
	for _, vm := range []struct {
		name  string
		ratio float64
	}{{"a", 0.2}, {"b", 0.6}} {
		labels, err := telemetry.NewLabels("vm", vm.name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			at := sim.Time(i) * sim.Hour
			if err := store.Append(exporter.MetricVMCPURatio, labels, at, vm.ratio); err != nil {
				t.Fatal(err)
			}
			if err := store.Append(exporter.MetricHostCPUUtil, labels, at, 95); err != nil {
				t.Fatal(err)
			}
		}
	}
	rec, instants, err := RecommendOvercommit(store)
	if err != nil {
		t.Fatal(err)
	}
	if instants != 100 {
		t.Errorf("instants = %d, want 100", instants)
	}
	if math.Abs(rec.Ratio-2) > 1e-9 || math.Abs(rec.PeakDemandRatio-0.4) > 1e-9 || rec.Headroom != 1.25 {
		t.Errorf("recommendation = %+v, want ratio 2, peak 0.4, headroom 1.25", rec)
	}
	if _, _, err := RecommendOvercommit(telemetry.NewStore()); err == nil {
		t.Error("empty store accepted")
	}
}
