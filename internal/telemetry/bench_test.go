package telemetry

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"sapsim/internal/sim"
)

// BenchmarkAppend measures the ingestion hot path (every scraped sample
// passes through Append).
func BenchmarkAppend(b *testing.B) {
	st := NewStore()
	labels := make([]Labels, 100)
	for i := range labels {
		labels[i] = MustLabels("hostsystem", fmt.Sprintf("n%03d", i), "cluster", "bb-0")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Append("cpu", labels[i%100], sim.Time(i)*sim.Second, float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreAppend measures concurrent batched ingestion: 8 writer
// goroutines, each with its own Appender over a disjoint label set,
// flushing every 64 samples — the shape of the simulator's sampling sweep
// and the scraper's per-target batches. On the old single-mutex store this
// serialized completely; the sharded store scales with shard count.
func BenchmarkStoreAppend(b *testing.B) {
	st := NewStore()
	// RunParallel spawns p*GOMAXPROCS goroutines; aim for ≥8 writers.
	if p := (8 + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0); p > 1 {
		b.SetParallelism(p)
	}
	var writer atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		w := writer.Add(1)
		app := st.Appender()
		labels := make([]Labels, 32)
		for i := range labels {
			labels[i] = MustLabels(
				"hostsystem", fmt.Sprintf("w%d-n%03d", w, i),
				"cluster", fmt.Sprintf("bb-%d", i/8),
			)
		}
		t, n := sim.Time(0), 0
		for pb.Next() {
			app.Append("cpu", labels[n%len(labels)], t, float64(n))
			n++
			if n%len(labels) == 0 {
				t += 5 * sim.Minute
			}
			if app.Pending() >= 64 {
				// b.Fatal must not be called from RunParallel goroutines.
				if _, err := app.Commit(); err != nil {
					b.Error(err)
					return
				}
			}
		}
		if _, err := app.Commit(); err != nil {
			b.Error(err)
		}
	})
}

// BenchmarkSeriesRefAppend measures the simulator's write path: one writer,
// a fixed schema resolved to handles once, then (t, v) straight through the
// handle — 8 series per host over 32 hosts, one sweep per 5 simulated
// minutes. Compare with BenchmarkStoreAppend's buffered hash-and-lookup.
func BenchmarkSeriesRefAppend(b *testing.B) {
	st := NewStore()
	var schema []string
	for m := 0; m < 8; m++ {
		schema = append(schema, fmt.Sprintf("metric_%d", m))
	}
	var sets []Labels
	for h := 0; h < 32; h++ {
		sets = append(sets, MustLabels("hostsystem", fmt.Sprintf("n%03d", h), "cluster", fmt.Sprintf("bb-%d", h/8)))
	}
	refs := st.Refs(schema, sets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := refs[i%len(refs)].Append(sim.Time(i/len(refs)+1)*5*sim.Minute, float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSelectStore builds a store with `total` series spread over many
// metrics, of which exactly `matching` belong to the queried metric.
func benchSelectStore(b *testing.B, matching, total int) *Store {
	b.Helper()
	st := NewStore()
	app := st.Appender()
	for i := 0; i < matching; i++ {
		app.Append("target", MustLabels("hostsystem", fmt.Sprintf("n%04d", i)), 0, 1)
	}
	for i := matching; i < total; i++ {
		metric := fmt.Sprintf("other_%02d", i%97)
		app.Append(metric, MustLabels("hostsystem", fmt.Sprintf("n%04d", i)), 0, 1)
	}
	if _, err := app.Commit(); err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkStoreSelect shows Select cost tracking the matching series
// count, not the store size: the /10k variants hold results constant while
// the store grows 10×. The old store scanned all series per Select.
func BenchmarkStoreSelect(b *testing.B) {
	for _, tc := range []struct {
		name            string
		matching, total int
	}{
		{"10match_1k_total", 10, 1_000},
		{"10match_10k_total", 10, 10_000},
		{"100match_1k_total", 100, 1_000},
		{"100match_10k_total", 100, 10_000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			st := benchSelectStore(b, tc.matching, tc.total)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := st.Select("target"); len(got) != tc.matching {
					b.Fatalf("Select = %d series, want %d", len(got), tc.matching)
				}
			}
		})
	}
}

// BenchmarkStoreSelectMatcher exercises the label-value index: one node
// out of 2,000 of the same metric.
func BenchmarkStoreSelectMatcher(b *testing.B) {
	st := NewStore()
	app := st.Appender()
	for i := 0; i < 2000; i++ {
		app.Append("cpu", MustLabels("hostsystem", fmt.Sprintf("n%04d", i)), 0, 1)
	}
	if _, err := app.Commit(); err != nil {
		b.Fatal(err)
	}
	m := Matcher{Name: "hostsystem", Value: "n1234"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := st.Select("cpu", m); len(got) != 1 {
			b.Fatalf("Select = %d series, want 1", len(got))
		}
	}
}

// BenchmarkDailyStats measures the heatmap aggregation over a 30-day,
// 5-minute-resolution series.
func BenchmarkDailyStats(b *testing.B) {
	s := &Series{}
	for i := 0; i < 30*288; i++ {
		s.col.append(sim.Time(i)*5*sim.Minute, float64(i%97))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DailyStats(s, 30)
	}
}

// BenchmarkPercentile measures the p95 computation used throughout the
// Fig. 8/9 analyses.
func BenchmarkPercentile(b *testing.B) {
	s := &Series{}
	for i := 0; i < 8640; i++ {
		s.col.append(sim.Time(i), float64((i*7919)%1000))
	}
	w := s.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Percentile(w.Values(), 95)
	}
}
