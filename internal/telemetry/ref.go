package telemetry

import (
	"errors"
	"sync"

	"sapsim/internal/sim"
)

// SeriesRef is a stable write handle to one series, for a writer whose schema
// is fixed: resolve once with Store.Refs, then AppendAll needs no hash and no
// index lookup. The store never removes a series, so a handle is valid for
// the life of its store.
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

// errForeignRef rejects a handle that was not resolved on the store it is
// written to (or was never resolved at all).
var errForeignRef = errors.New("telemetry: handle from another store")

// AppendAll writes the sample (t, vals[i]) through refs[i] for every i: one
// sampling sweep as one batch. It takes every shard's write lock once, in
// index order, so a reader that holds every read lock (Select, Dump and the
// counts) sees a batch whole or not at all. A rejected sample — out of order,
// or through a handle from another store — is skipped, the rest of the batch
// lands, and the rejections come back joined. Like an Appender, the slices
// belong to one writer.
func (st *Store) AppendAll(t sim.Time, refs []SeriesRef, vals []float64) error {
	vals = vals[:len(refs)]
	var errs []error
	st.lockEach((*sync.RWMutex).Lock)
	for i := range refs {
		if refs[i].st != st {
			errs = append(errs, errForeignRef)
		} else if err := refs[i].s.appendSample(t, vals[i]); err != nil {
			errs = append(errs, err)
		}
	}
	st.lockEach((*sync.RWMutex).Unlock)
	return errors.Join(errs...)
}

// lockEach applies op to every shard's lock in index order. Every holder of
// more than one shard lock takes them in this order, so none can deadlock.
func (st *Store) lockEach(op func(*sync.RWMutex)) {
	for i := range st.shards {
		op(&st.shards[i].mu)
	}
}
