package telemetry

import (
	"errors"
	"fmt"
	"reflect"
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
	for n := 0; n < 32; n++ { // enough keys to land in every shard
		sets = append(sets, MustLabels("node", fmt.Sprintf("n%02d", n)))
	}
	appendAll := func(refs []SeriesRef, at sim.Time) {
		t.Helper()
		for i := range refs {
			if err := refs[i].Append(at, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := NewStore()
	refs := st.Refs(metrics, sets)
	appendAll(refs, sim.Hour)
	appendAll(refs, 2*sim.Hour)
	if err := refs[0].Append(2*sim.Hour, 0); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("repeated timestamp through a handle = %v, want ErrOutOfOrder", err)
	}

	loaded := NewStore()
	if err := loaded.Load(st.Dump()); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Load(st.Dump()); err == nil {
		t.Error("Load into a non-empty store succeeded")
	}
	appendAll(loaded.Refs(metrics, sets), 3*sim.Hour)

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
			app := st.Appender()
			l := MustLabels("g", fmt.Sprintf("w%d", g))
			for i := 0; i < perWriter; i++ {
				app.Append("m", l, sim.Time(i), float64(i))
				if i%50 == 49 {
					if _, err := app.Commit(); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if _, err := app.Commit(); err != nil {
				t.Error(err)
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

func TestAppenderBatch(t *testing.T) {
	st := NewStore()
	app := st.Appender()
	for i := 0; i < 100; i++ {
		l := MustLabels("node", fmt.Sprintf("n%02d", i))
		app.Append("cpu", l, sim.Minute, float64(i))
	}
	if app.Pending() != 100 {
		t.Errorf("Pending = %d, want 100", app.Pending())
	}
	// Nothing visible before commit.
	if n := st.SampleCount(); n != 0 {
		t.Errorf("samples visible before commit: %d", n)
	}
	applied, err := app.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if applied != 100 {
		t.Errorf("applied = %d, want 100", applied)
	}
	if app.Pending() != 0 {
		t.Errorf("Pending after commit = %d", app.Pending())
	}
	if st.SeriesCount() != 100 || st.SampleCount() != 100 {
		t.Errorf("store has %d series / %d samples, want 100/100",
			st.SeriesCount(), st.SampleCount())
	}
}

// TestAppenderPartialOutOfOrder: rejected samples are reported but do not
// sink the rest of the batch.
func TestAppenderPartialOutOfOrder(t *testing.T) {
	st := NewStore()
	l1 := MustLabels("node", "n1")
	l2 := MustLabels("node", "n2")
	if err := st.Append("cpu", l1, sim.Hour, 1); err != nil {
		t.Fatal(err)
	}
	app := st.Appender()
	app.Append("cpu", l1, sim.Minute, 2) // out of order for n1
	app.Append("cpu", l2, sim.Minute, 3) // fine for fresh n2
	applied, err := app.Commit()
	if !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("Commit error = %v, want ErrOutOfOrder", err)
	}
	if applied != 1 {
		t.Errorf("applied = %d, want 1", applied)
	}
	if got := st.Select("cpu", Matcher{"node", "n2"}); len(got) != 1 || got[0].Sample(0).V != 3 {
		t.Errorf("in-order sample of the batch missing: %v", got)
	}
	// The appender is reusable after an error.
	app.Append("cpu", l1, 2*sim.Hour, 4)
	if applied, err := app.Commit(); err != nil || applied != 1 {
		t.Errorf("reuse after error: applied=%d err=%v", applied, err)
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

// TestSelectDeterministicOrder: creation order survives sharding.
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

// TestSeriesSpreadAcrossShards: a realistic population should not collapse
// into one shard (sanity check on the hash distribution).
func TestSeriesSpreadAcrossShards(t *testing.T) {
	st := NewStore()
	for i := 0; i < 256; i++ {
		l := MustLabels("hostsystem", fmt.Sprintf("node-%03d", i))
		if err := st.Append("cpu", l, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	occupied := 0
	for i := range st.shards {
		if len(st.shards[i].series) > 0 {
			occupied++
		}
	}
	if occupied < shardCount/2 {
		t.Errorf("256 series landed in only %d of %d shards", occupied, shardCount)
	}
}
