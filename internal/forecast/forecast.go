// Package forecast provides the demand-prediction primitives the paper's
// guidance calls for (Sec. 7): proactive placement needs short-horizon
// demand forecasts, and "a more dynamic and workload-based approach to
// determine the overcommit factor" needs a principled mapping from observed
// demand to a safe vCPU:pCPU ratio.
//
// The predictor is a Holt–Winters additive model that captures the diurnal
// cycles enterprise workloads exhibit (Figs. 5, 8).
package forecast

import (
	"errors"
	"math"
	"slices"

	"sapsim/internal/exporter"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

// HoltWinters is an additive triple-exponential-smoothing model with a
// fixed seasonal period (e.g. one day of samples).
type HoltWinters struct {
	alpha, beta, gamma float64
	period             int

	level  float64
	trend  float64
	season []float64
	n      int
	warm   []float64 // first-period buffer for initialization
}

// NewHoltWinters creates a model. period is the season length in samples
// (e.g. 288 for a day at 5-minute sampling).
func NewHoltWinters(alpha, beta, gamma float64, period int) (*HoltWinters, error) {
	if alpha <= 0 || alpha > 1 || beta < 0 || beta > 1 || gamma < 0 || gamma > 1 {
		return nil, errors.New("forecast: smoothing factors must be in (0,1]")
	}
	if period < 2 {
		return nil, errors.New("forecast: period must be at least 2")
	}
	return &HoltWinters{alpha: alpha, beta: beta, gamma: gamma, period: period}, nil
}

// Observe feeds one observation. The first full period initializes the
// seasonal components.
func (h *HoltWinters) Observe(v float64) {
	if h.n < h.period {
		h.warm = append(h.warm, v)
		h.n++
		if h.n == h.period {
			h.initialize()
		}
		return
	}
	idx := h.n % h.period
	prevLevel := h.level
	h.level = h.alpha*(v-h.season[idx]) + (1-h.alpha)*(h.level+h.trend)
	h.trend = h.beta*(h.level-prevLevel) + (1-h.beta)*h.trend
	h.season[idx] = h.gamma*(v-h.level) + (1-h.gamma)*h.season[idx]
	h.n++
}

func (h *HoltWinters) initialize() {
	mean := 0.0
	for _, v := range h.warm {
		mean += v
	}
	mean /= float64(h.period)
	h.level = mean
	h.trend = 0
	h.season = make([]float64, h.period)
	for i, v := range h.warm {
		h.season[i] = v - mean
	}
	h.warm = nil
}

// Ready reports whether a full period has been observed.
func (h *HoltWinters) Ready() bool { return h.n >= h.period }

// Forecast predicts the value steps samples ahead (1 = next sample).
// It returns NaN until Ready.
func (h *HoltWinters) Forecast(steps int) float64 {
	if !h.Ready() || steps < 1 {
		return math.NaN()
	}
	idx := (h.n + steps - 1) % h.period
	return h.level + float64(steps)*h.trend + h.season[idx]
}

// FitSeries feeds every sample of a telemetry series into the model.
func (h *HoltWinters) FitSeries(s *telemetry.Series) {
	for i := 0; i < s.Len(); i++ {
		h.Observe(s.Sample(i).V)
	}
}

// OvercommitRecommendation is the output of DynamicOvercommit.
type OvercommitRecommendation struct {
	// Ratio is the recommended vCPU:pCPU overcommit factor.
	Ratio float64
	// PeakDemandRatio is the observed p99 demand per allocated vCPU.
	PeakDemandRatio float64
	// Headroom is the configured safety margin applied to the peak.
	Headroom float64
}

// DynamicOvercommit derives a workload-based overcommit factor from the
// observed per-vCPU demand ratios (VM CPU usage ratios over a window): if
// VMs collectively never demand more than p99 = r of their allocations, a
// ratio of 1/(r×headroom) keeps physical cores sufficient at the observed
// peak — the quantitative form of the paper's Sec. 7 guidance.
func DynamicOvercommit(usageRatios []float64, headroom float64) (OvercommitRecommendation, error) {
	if len(usageRatios) == 0 {
		return OvercommitRecommendation{}, errors.New("forecast: no usage observations")
	}
	if headroom < 1 {
		headroom = 1
	}
	peak := telemetry.Percentile(slices.Clone(usageRatios), 99)
	if peak <= 0 {
		peak = 0.01
	}
	ratio := 1 / (peak * headroom)
	// Clamp to the operationally sane band: no undercommit, and nothing
	// beyond the aggressive 8:1 used in dev/test clouds.
	if ratio < 1 {
		ratio = 1
	}
	if ratio > 8 {
		ratio = 8
	}
	return OvercommitRecommendation{Ratio: ratio, PeakDemandRatio: peak, Headroom: headroom}, nil
}

// RecommendOvercommit is DynamicOvercommit over the VM CPU usage ratios in
// a store, with 25% headroom. Overcommit works through statistical
// multiplexing, so the input is the aggregate per-vCPU demand ratio of the
// population at each sampling instant, not individual VM tails. It also
// returns the number of instants.
func RecommendOvercommit(store *telemetry.Store) (OvercommitRecommendation, int, error) {
	sums := map[sim.Time]float64{}
	counts := map[sim.Time]int{}
	for _, s := range store.Select(exporter.MetricVMCPURatio) {
		for i := 0; i < s.Len(); i++ {
			smp := s.Sample(i)
			sums[smp.T] += smp.V
			counts[smp.T]++
		}
	}
	ratios := make([]float64, 0, len(sums))
	for t, sum := range sums {
		ratios = append(ratios, sum/float64(counts[t]))
	}
	rec, err := DynamicOvercommit(ratios, 1.25)
	return rec, len(ratios), err
}

// MAE reports the mean absolute one-step-ahead forecast error of the model
// over a series — the validation metric for predictor quality.
func MAE(h *HoltWinters, s *telemetry.Series) float64 {
	sum, n := 0.0, 0
	for i := 0; i < s.Len(); i++ {
		smp := s.Sample(i)
		if h.Ready() {
			pred := h.Forecast(1)
			sum += math.Abs(pred - smp.V)
			n++
		}
		h.Observe(smp.V)
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
