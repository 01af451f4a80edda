package telemetry

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"sapsim/internal/sim"
)

// The reference the column store is compared against: a plain slice of
// (time, value) pairs and the obvious loops over it — the layout and the
// code the store had before it became columnar.

func refRange(ref []Sample, from, to sim.Time) []Sample {
	var out []Sample
	for _, s := range ref {
		if from <= s.T && s.T < to {
			out = append(out, s)
		}
	}
	return out
}

func refAt(ref []Sample, t sim.Time) (float64, bool) {
	v, ok := 0.0, false
	for _, s := range ref {
		if s.T <= t {
			v, ok = s.V, true
		}
	}
	return v, ok
}

func refValues(ref []Sample) []float64 {
	out := make([]float64, len(ref))
	for i, s := range ref {
		out[i] = s.V
	}
	return out
}

// sameFloat is == that also holds for two NaNs.
func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// checkWindow compares a window and every aggregate over it with the
// reference samples it should cover.
func checkWindow(t *testing.T, what string, w Window, ref []Sample) {
	t.Helper()
	if w.Len() != len(ref) {
		t.Fatalf("%s: window has %d samples, want %d", what, w.Len(), len(ref))
	}
	for i, want := range ref {
		if got := w.Sample(i); got != want {
			t.Fatalf("%s: sample %d = %+v, want %+v", what, i, got, want)
		}
	}
	vals := refValues(ref)
	if got := w.AppendValues(nil); !slices.Equal(got, vals) {
		t.Fatalf("%s: values = %v, want %v", what, got, vals)
	}
	sum, lo, hi := 0.0, math.NaN(), math.NaN()
	for i, v := range vals {
		sum += v
		if i == 0 || v > hi {
			hi = v
		}
		if i == 0 || v < lo {
			lo = v
		}
	}
	mean := math.NaN()
	if len(vals) > 0 {
		mean = sum / float64(len(vals))
	}
	if got := Sum(w); got != sum {
		t.Fatalf("%s: Sum = %v, want %v", what, got, sum)
	}
	if got := Mean(w); !sameFloat(got, mean) {
		t.Fatalf("%s: Mean = %v, want %v", what, got, mean)
	}
	if got := Max(w); !sameFloat(got, hi) {
		t.Fatalf("%s: Max = %v, want %v", what, got, hi)
	}
	if got := Min(w); !sameFloat(got, lo) {
		t.Fatalf("%s: Min = %v, want %v", what, got, lo)
	}
	sort.Float64s(vals)
	p := math.NaN()
	if n := len(vals); n > 0 {
		rank := 0.95 * float64(n-1)
		p = vals[int(rank)]*(1-(rank-math.Floor(rank))) + vals[int(math.Ceil(rank))]*(rank-math.Floor(rank))
	}
	if got := Percentile(w.Values(), 95); !sameFloat(got, p) {
		t.Fatalf("%s: p95 = %v, want %v", what, got, p)
	}
}

// checkSeries compares a view with the reference samples through every
// read the Series type offers.
func checkSeries(t *testing.T, what string, s *Series, ref []Sample, rng *rand.Rand) {
	t.Helper()
	checkWindow(t, what+" All", s.All(), ref)
	if s.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, want %d", what, s.Len(), len(ref))
	}
	last, ok := s.Last()
	if ok != (len(ref) > 0) || (ok && last != ref[len(ref)-1]) {
		t.Fatalf("%s: Last = %+v, %v", what, last, ok)
	}
	// Probe instants: the extremes, every sample's instant and its two
	// neighbours, and a few random ones.
	probes := []sim.Time{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for _, smp := range ref {
		probes = append(probes, smp.T-1, smp.T, smp.T+1)
	}
	for i := 0; i < 8 && len(ref) > 0; i++ {
		probes = append(probes, ref[0].T+sim.Time(rng.Int64N(int64(ref[len(ref)-1].T-ref[0].T)+2)))
	}
	for _, at := range probes {
		got, ok := s.At(at)
		want, wantOK := refAt(ref, at)
		if got != want || ok != wantOK {
			t.Fatalf("%s: At(%d) = %v, %v, want %v, %v", what, at, got, ok, want, wantOK)
		}
	}
	for i := 0; i < 40; i++ {
		from, to := probes[rng.IntN(len(probes))], probes[rng.IntN(len(probes))]
		checkWindow(t, what+" Range", s.Range(from, to), refRange(ref, from, to))
	}
}

// TestColumnMatchesSliceReference drives grid, late-starting, gapped and
// irregular writers of many lengths against the reference, checking views
// taken along the way (they must keep describing the prefix they were taken
// at, through a chunk seal and through the grid → explicit-times switch) and
// the form Dump copies the series out in.
func TestColumnMatchesSliceReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 2026))
	lengths := []int{0, 1, 2, 3, chunkCap - 1, chunkCap, chunkCap + 1, 2*chunkCap - 1, 2 * chunkCap, 2*chunkCap + 1, 5*chunkCap + 7}
	shapes := []struct {
		name string
		// next returns the timestamp of sample i given the previous one.
		next func(i, n int, prev sim.Time) sim.Time
		grid bool
	}{
		{"grid", func(i, n int, prev sim.Time) sim.Time { return sim.Time(i) * 5 * sim.Minute }, true},
		{"late", func(i, n int, prev sim.Time) sim.Time { return 3*sim.Day + 7 + sim.Time(i)*sim.Hour }, true},
		{"negative", func(i, n int, prev sim.Time) sim.Time { return -sim.Day + sim.Time(i)*sim.Hour }, true},
		{"gapped", func(i, n int, prev sim.Time) sim.Time {
			if i > n/2 { // one missed tick in the middle, then back in step
				return sim.Time(i+1) * sim.Hour
			}
			return sim.Time(i) * sim.Hour
		}, false},
		{"irregular", func(i, n int, prev sim.Time) sim.Time {
			if i == 0 {
				return sim.Time(rng.Int64N(1000))
			}
			return prev + 1 + sim.Time(rng.Int64N(int64(sim.Hour)))
		}, false},
	}
	for _, shape := range shapes {
		for _, n := range lengths {
			what := fmt.Sprintf("%s/%d", shape.name, n)
			st := NewStore()
			labels := MustLabels("shape", shape.name)
			if n == 0 {
				st.Refs([]string{"m"}, []Labels{labels}) // a series with no samples yet
			}
			var ref []Sample
			type held struct {
				view *Series
				n    int
			}
			var views []held
			var prev sim.Time
			for i := 0; i < n; i++ {
				prev = shape.next(i, n, prev)
				smp := Sample{T: prev, V: math.Round(rng.NormFloat64()*1000) / 8}
				if err := st.Append("m", labels, smp.T, smp.V); err != nil {
					t.Fatalf("%s: append %d: %v", what, i, err)
				}
				ref = append(ref, smp)
				if i%7 == 0 || i == n/2 || (i+1)%chunkCap == 0 {
					views = append(views, held{st.Select("m")[0], i + 1})
				}
			}
			if n > 0 {
				if err := st.Append("m", labels, prev, 1); !errors.Is(err, ErrOutOfOrder) {
					t.Fatalf("%s: repeated timestamp = %v, want ErrOutOfOrder", what, err)
				}
			}
			checkSeries(t, what, st.Select("m")[0], ref, rng)
			for _, h := range views {
				checkSeries(t, what+" held view", h.view, ref[:h.n], rng)
			}
			if got := st.SampleCount(); got != n {
				t.Fatalf("%s: SampleCount = %d, want %d", what, got, n)
			}
			wantBytes := 8 * chunkCap * ((n + chunkCap - 1) / chunkCap)
			if got := st.Bytes(); (shape.grid || n < 3) && got != wantBytes {
				t.Fatalf("%s: Bytes = %d, want %d (values only: the series is on its grid)", what, got, wantBytes)
			} else if !shape.grid && n >= 3 && got < wantBytes+8*n {
				t.Fatalf("%s: Bytes = %d, want at least %d (values and explicit times)", what, got, wantBytes+8*n)
			}

			dump := st.Dump()
			if len(dump) != 1 || (len(dump[0].Times) > 0) != (!shape.grid && n >= 3) {
				t.Fatalf("%s: dump = %d series, explicit times %v", what, len(dump), len(dump[0].Times) > 0)
			}
		}
	}
}

// TestViewsImmutableAcrossChunkSeal: under -race, views held by a reader
// must not change — nor share a written word — while a writer fills the open
// chunk, seals it, opens more, and pushes the series off its grid.
func TestViewsImmutableAcrossChunkSeal(t *testing.T) {
	const total = 4*chunkCap + 5
	at := func(i int) sim.Time {
		if i >= 2*chunkCap+3 { // a late tick: the grid ends here
			return sim.Time(i)*sim.Minute + 1
		}
		return sim.Time(i) * sim.Minute
	}
	check := func(s *Series, n int) {
		if s.Len() != n {
			t.Errorf("held view changed length: %d, was %d", s.Len(), n)
			return
		}
		for i := 0; i < n; i++ {
			if got, want := s.Sample(i), (Sample{T: at(i), V: float64(i)}); got != want {
				t.Errorf("held view of %d samples: sample %d = %+v, want %+v", n, i, got, want)
				return
			}
		}
		if n > 0 && Sum(s.All()) != float64(n*(n-1)/2) {
			t.Errorf("held view of %d samples: sum changed", n)
		}
	}
	st := NewStore()
	ref := st.Refs([]string{"m"}, []Labels{{}})
	for i := 0; i < chunkCap-1; i++ { // leave the open chunk one short of its seal
		if err := st.AppendAll(at(i), ref, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	held := []*Series{st.Select("m")[0]}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := chunkCap - 1; i < total; i++ {
			if err := st.AppendAll(at(i), ref, []float64{float64(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	lens := []int{chunkCap - 1}
	for writing := true; writing; {
		// Read first, then look whether the writer is done: at least one
		// pass over the held views is unordered with the writer's appends.
		if s := st.Select("m")[0]; s.Len() != lens[len(lens)-1] {
			held, lens = append(held, s), append(lens, s.Len())
		}
		for i, s := range held {
			check(s, lens[i])
		}
		select {
		case <-done:
			writing = false
		default:
		}
	}
	check(st.Select("m")[0], total)
	for i, s := range held {
		check(s, lens[i])
	}
	t.Logf("held %d views while %d samples were appended", len(held), total-chunkCap+1)
}

// TestWindowReadsDoNotAllocate: a window and the aggregates over it are
// index arithmetic over the store's chunks; only Percentile needs memory,
// the one copy it sorts.
func TestWindowReadsDoNotAllocate(t *testing.T) {
	for _, explicit := range []bool{false, true} {
		s := &Series{}
		for i := 0; i < 10*chunkCap+3; i++ {
			at := sim.Time(i) * sim.Hour
			if explicit && i > 4 {
				at += sim.Time(i % 3)
			}
			s.col.append(at, float64(i%17))
		}
		if (s.col.times != nil) != explicit {
			t.Fatalf("explicit times = %v, want %v", s.col.times != nil, explicit)
		}
		var sink float64
		if n := testing.AllocsPerRun(100, func() {
			w := s.Range(3*sim.Hour, sim.Time(7*chunkCap)*sim.Hour)
			sink += Mean(w) + Max(w) + Min(w) + Sum(w) + float64(w.Len())
			sink += w.Sample(w.Len()-1).V - w.Sample(0).V // rate, delta
			v, _ := s.At(sim.Time(5*chunkCap) * sim.Hour)
			last, _ := s.Last()
			sink += v + last.V + Mean(s.All())
		}); n != 0 {
			t.Errorf("explicit=%v: window reads allocate %v times per run, want 0", explicit, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			w := s.Range(3*sim.Hour, sim.Time(7*chunkCap)*sim.Hour)
			sink += Percentile(w.Values(), 95)
		}); n != 1 {
			t.Errorf("explicit=%v: Percentile over a window allocates %v times per run, want its one sort copy", explicit, n)
		}
	}
}
