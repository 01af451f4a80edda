package telemetry

import "sapsim/internal/sim"

// SeriesRef is a stable write handle to one series, for a writer whose schema
// is fixed: resolve once with Store.Refs, then Append needs no hash and no
// index lookup. Like an Appender, a ref belongs to one goroutine.
type SeriesRef struct {
	st *Store
	s  *memSeries
}

// Refs resolves one handle per (label set, metric) pair, sets-major, creating
// the series that do not exist yet. Creation order is shard-major, then
// argument order — what an Appender commit of the same samples produces, and
// a contract: Select and Dump return creation order and the analysis layer
// accumulates floats in it.
func (st *Store) Refs(metrics []string, sets []Labels) []SeriesRef {
	if len(sets) == 0 {
		return nil
	}
	refs := make([]SeriesRef, len(sets)*len(metrics))
	hashes := make([]uint64, len(refs))
	for i := range refs {
		hashes[i] = hashSeries(metrics[i%len(metrics)], sets[i/len(metrics)])
	}
	for si := range st.shards {
		sh := &st.shards[si]
		sh.mu.Lock()
		for i, hash := range hashes {
			if sh == st.shardFor(hash) {
				refs[i] = SeriesRef{st, st.getOrCreate(sh, hash, metrics[i%len(metrics)], sets[i/len(metrics)])}
			}
		}
		sh.mu.Unlock()
	}
	return refs
}

// Append adds one sample. The store never removes a series, so the handle
// is valid for the life of its store.
func (r *SeriesRef) Append(t sim.Time, v float64) error {
	sh := r.st.shardFor(r.s.hash)
	sh.mu.Lock()
	err := r.s.appendSample(t, v)
	sh.mu.Unlock()
	return err
}
