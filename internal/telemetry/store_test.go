package telemetry

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"sapsim/internal/sim"
)

// TestSelectSnapshotImmutable verifies the data race fixed by the sharded
// store: series handed out by Select must not observe later appends.
func TestSelectSnapshotImmutable(t *testing.T) {
	st := NewStore()
	l := MustLabels("node", "n1")
	for i := 0; i < 3; i++ {
		if err := st.Append("cpu", l, sim.Time(i)*sim.Minute, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := st.Select("cpu")[0]
	if snap.Len() != 3 {
		t.Fatalf("snapshot has %d samples, want 3", snap.Len())
	}
	for i := 3; i < 1000; i++ {
		if err := st.Append("cpu", l, sim.Time(i)*sim.Minute, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if snap.Len() != 3 {
		t.Errorf("snapshot grew to %d samples after appends", snap.Len())
	}
	for i := 0; i < snap.Len(); i++ {
		if smp := snap.Sample(i); smp.V != float64(i) {
			t.Errorf("snapshot sample %d mutated: %v", i, smp.V)
		}
	}
}

// TestSeriesRefLifecycle drives the only lifecycle a handle has: resolve,
// append, round-trip the store through Dump/Load, resolve again on the
// loaded store (finding, not shadowing, the loaded series) and append. Every
// key ends as one series, in the original creation order, with all samples.
func TestSeriesRefLifecycle(t *testing.T) {
	metrics := []string{"cpu", "mem", "net"}
	var sets []Labels
	for n := 0; n < 32; n++ { // enough keys to land in every creation-order bucket
		sets = append(sets, MustLabels("node", fmt.Sprintf("n%02d", n)))
	}
	appendAll := func(st *Store, refs []SeriesRef, at sim.Time) {
		t.Helper()
		vals := make([]float64, len(refs))
		for i := range vals {
			vals[i] = float64(i)
		}
		if err := st.AppendAll(at, refs, vals); err != nil {
			t.Fatal(err)
		}
	}
	st := NewStore()
	refs := st.Refs(metrics, sets)
	appendAll(st, refs, sim.Hour)
	appendAll(st, refs, 2*sim.Hour)
	if err := st.AppendAll(2*sim.Hour, refs[:1], []float64{0}); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("repeated timestamp through a handle = %v, want ErrOutOfOrder", err)
	}

	loaded := NewStore()
	if err := loaded.Load(st.Dump()); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Load(st.Dump()); err == nil {
		t.Error("Load into a non-empty store succeeded")
	}
	appendAll(loaded, loaded.Refs(metrics, sets), 3*sim.Hour)

	if got, want := loaded.SeriesCount(), len(refs); got != want {
		t.Fatalf("loaded store has %d series, want %d (a handle shadowed a loaded series)", got, want)
	}
	for mi, metric := range metrics {
		before, after := st.Select(metric), loaded.Select(metric)
		if len(before) != len(sets) || len(after) != len(sets) {
			t.Fatalf("Select(%s) = %d series before, %d after Load, want %d", metric, len(before), len(after), len(sets))
		}
		for i, s := range after {
			if !s.Labels.Equal(before[i].Labels) {
				t.Fatalf("Select(%s)[%d] = %s after Load, want %s (creation order lost)", metric, i, s.Labels, before[i].Labels)
			}
		}
		got := loaded.Select(metric, Matcher{"node", "n31"})
		v := float64(31*len(metrics) + mi)
		want := []Sample{{sim.Hour, v}, {2 * sim.Hour, v}, {3 * sim.Hour, v}}
		if len(got) != 1 || !reflect.DeepEqual(samplesOf(got[0]), want) {
			t.Errorf("Select(%s, node=n31) after Load = %v, want samples %v", metric, got, want)
		}
	}
}

// TestAppendAllRejectsSamplesIndividually: an out-of-order sample in the
// middle of a batch, and a handle resolved on another store, are each
// rejected on their own; every other sample of the batch lands, and the
// error names the out-of-order series. An empty batch writes nothing.
func TestAppendAllRejectsSamplesIndividually(t *testing.T) {
	st := NewStore()
	var sets []Labels
	for n := 0; n < 32; n++ {
		sets = append(sets, MustLabels("node", fmt.Sprintf("n%02d", n)))
	}
	refs := st.Refs([]string{"cpu"}, sets)
	if err := st.AppendAll(sim.Hour, nil, nil); err != nil || st.SampleCount() != 0 {
		t.Fatalf("empty batch: err %v, %d samples", err, st.SampleCount())
	}
	// n16 already holds a sample at the batch's instant.
	if err := st.AppendAll(sim.Hour, refs[16:17], []float64{-1}); err != nil {
		t.Fatal(err)
	}
	foreign := NewStore().Refs([]string{"cpu"}, sets[:1])
	batch := append(append([]SeriesRef{}, refs...), foreign...)
	vals := make([]float64, len(batch))
	for i := range vals {
		vals[i] = float64(i)
	}
	err := st.AppendAll(sim.Hour, batch, vals)
	if !errors.Is(err, ErrOutOfOrder) || !strings.Contains(err.Error(), `cpu{node="n16"}`) {
		t.Errorf("AppendAll error = %v, want ErrOutOfOrder naming cpu{node=\"n16\"}", err)
	}
	if !errors.Is(err, errForeignRef) {
		t.Errorf("AppendAll error = %v, want the foreign handle refused", err)
	}
	if got, want := st.SampleCount(), len(refs); got != want {
		t.Errorf("SampleCount = %d, want %d (one per series)", got, want)
	}
	for _, s := range st.Select("cpu") {
		var i int
		fmt.Sscanf(s.Labels.Get("node"), "n%d", &i)
		want := float64(i)
		if i == 16 {
			want = -1
		}
		if v, _ := s.At(sim.Hour); v != want {
			t.Errorf("%s at 1h = %v, want %v", s.Labels, v, want)
		}
	}
}

// TestAppendAllBatchesAreAtomic: readers running against concurrent
// AppendAll batches see every batch whole or not at all — SampleCount, Dump
// and Select never observe a partly written sweep — and a held Select view
// never changes. Run with -race.
func TestAppendAllBatchesAreAtomic(t *testing.T) {
	st := NewStore()
	var sets []Labels
	for n := 0; n < 24; n++ { // enough keys to span the shards
		sets = append(sets, MustLabels("node", fmt.Sprintf("n%02d", n)))
	}
	refs := st.Refs([]string{"cpu", "mem"}, sets)
	const batches = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		vals := make([]float64, len(refs))
		for b := 1; b <= batches; b++ {
			for i := range vals {
				vals[i] = float64(b)
			}
			if err := st.AppendAll(sim.Time(b)*sim.Minute, refs, vals); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var held []*Series
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		if n := st.SampleCount(); n%len(refs) != 0 {
			t.Fatalf("SampleCount = %d, not a whole number of %d-sample batches", n, len(refs))
		}
		dump := st.Dump()
		for _, d := range dump {
			if len(d.Values) != len(dump[0].Values) {
				t.Fatalf("Dump holds series of %d and %d samples", len(d.Values), len(dump[0].Values))
			}
		}
		sel := st.Select("cpu")
		for _, s := range sel {
			if s.Len() != sel[0].Len() {
				t.Fatalf("Select holds series of %d and %d samples", s.Len(), sel[0].Len())
			}
		}
		if held == nil && sel[0].Len() > 0 {
			held = sel
		}
	}
	if held == nil {
		t.Fatal("no non-empty selection observed")
	}
	n := held[0].Len()
	for _, s := range held {
		if s.Len() != n || s.Sample(n-1).V != float64(n) {
			t.Errorf("held view of %s changed: %d samples, last %v", s.Labels, s.Len(), s.Sample(s.Len()-1))
		}
	}
	if got, want := st.SampleCount(), batches*len(refs); got != want {
		t.Errorf("SampleCount = %d, want %d", got, want)
	}
}

// TestConcurrentAppendSelect drives writers and readers together; run with
// -race this is the regression test for the old Select-returns-live-series
// race.
func TestConcurrentAppendSelect(t *testing.T) {
	st := NewStore()
	const writers = 4
	const perWriter = 500
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := MustLabels("g", fmt.Sprintf("w%d", g))
			for i := 0; i < perWriter; i++ {
				if err := st.Append("m", l, sim.Time(i), float64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 200; i++ {
			for _, s := range st.Select("m") {
				// Walk every sample; with -race this flags any mutation
				// of handed-out snapshots.
				for i := 0; i < s.Len(); i++ {
					_ = s.Sample(i).V
				}
			}
			_ = st.Metrics()
			_ = st.SampleCount()
		}
	}()
	wg.Wait()
	<-readerDone
	if got := st.SampleCount(); got != writers*perWriter {
		t.Errorf("SampleCount = %d, want %d", got, writers*perWriter)
	}
}

// TestLabelInterning: series sharing a label set share one backing slice.
func TestLabelInterning(t *testing.T) {
	st := NewStore()
	mk := func() Labels { return MustLabels("node", "n1", "cluster", "bb-0") }
	if err := st.Append("cpu", mk(), 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("mem", mk(), 0, 1); err != nil {
		t.Fatal(err)
	}
	a := st.Select("cpu")[0].Labels
	b := st.Select("mem")[0].Labels
	if len(a.kv) == 0 || &a.kv[0] != &b.kv[0] {
		t.Error("equal label sets not interned to one backing slice")
	}
}

// TestSelectEmptyValueMatcher: a matcher with an empty value selects series
// lacking the label (the index cannot serve this; the filter must).
func TestSelectEmptyValueMatcher(t *testing.T) {
	st := NewStore()
	if err := st.Append("cpu", MustLabels("node", "n1"), 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("cpu", MustLabels("node", "n2", "extra", "x"), 0, 2); err != nil {
		t.Fatal(err)
	}
	got := st.Select("cpu", Matcher{Name: "extra", Value: ""})
	if len(got) != 1 || got[0].Labels.Get("node") != "n1" {
		t.Errorf("empty-value matcher = %v, want the label-less series", got)
	}
}

// TestSelectDeterministicOrder: Select returns series in creation order.
func TestSelectDeterministicOrder(t *testing.T) {
	st := NewStore()
	want := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("n%02d", i)
		if err := st.Append("cpu", MustLabels("node", name), 0, 1); err != nil {
			t.Fatal(err)
		}
		want = append(want, name)
	}
	got := st.Select("cpu")
	if len(got) != len(want) {
		t.Fatalf("got %d series, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.Labels.Get("node") != want[i] {
			t.Fatalf("series %d = %s, want %s (creation order lost)",
				i, s.Labels.Get("node"), want[i])
		}
	}
}

// TestHashMatchesStringFingerprint: the 64-bit hash must distinguish every
// pair a separator-joined string key would, including the classic
// concatenation ambiguity ("ab"+"c" vs "a"+"bc"). The cases are pairwise
// distinct series.
func TestHashMatchesStringFingerprint(t *testing.T) {
	cases := []struct {
		metric string
		labels Labels
	}{
		{"cpu", MustLabels("node", "n1")},
		{"cpu", MustLabels("node", "n2")},
		{"cpun", MustLabels("ode", "n1")},
		{"mem", MustLabels("node", "n1")},
		{"cpu", MustLabels("no", "den1")},
		{"cpu", Labels{}},
		{"", MustLabels("node", "n1")},
	}
	for i := range cases {
		for j := range cases {
			if i == j {
				continue
			}
			if hashSeries(cases[i].metric, cases[i].labels) == hashSeries(cases[j].metric, cases[j].labels) {
				t.Errorf("case %d and %d are distinct series with one hash", i, j)
			}
		}
	}
}

// TestRefsCreationOrder pins the order in which Refs creates a batch's new
// series — sets-major arguments, stably sorted by their fingerprint modulo
// 16 — against an oracle written here, independently of refOrderBuckets:
// Dump returns creation order, and the benchmark's pinned sweep cell
// fingerprints rest on it. Series that already exist keep their place, and
// a second batch's new series follow the first batch's.
func TestRefsCreationOrder(t *testing.T) {
	metrics := []string{"cpu", "mem", "disk"}
	var sets []Labels
	for n := 0; n < 40; n++ {
		sets = append(sets, MustLabels("node", fmt.Sprintf("n%02d", n), "cluster", fmt.Sprintf("bb-%d", n%3)))
	}
	type key struct {
		metric string
		labels Labels
	}
	oracle := func(sets []Labels) []key {
		var keys []key
		for _, l := range sets {
			for _, m := range metrics {
				keys = append(keys, key{m, l})
			}
		}
		sort.SliceStable(keys, func(i, j int) bool {
			return hashSeries(keys[i].metric, keys[i].labels)%16 < hashSeries(keys[j].metric, keys[j].labels)%16
		})
		return keys
	}
	st := NewStore()
	st.Refs(metrics, sets[:25])
	// The second batch repeats five sets of the first; only the new ones
	// are created.
	st.Refs(metrics, sets[20:])
	want := append(oracle(sets[:25]), oracle(sets[25:])...)
	got := st.Dump()
	if len(got) != len(want) {
		t.Fatalf("Dump holds %d series, want %d", len(got), len(want))
	}
	for i, d := range got {
		if l := MustLabels(d.Labels...); d.Metric != want[i].metric || !l.Equal(want[i].labels) {
			t.Fatalf("series %d = %s%s, want %s%s", i, d.Metric, l, want[i].metric, want[i].labels)
		}
	}
}
