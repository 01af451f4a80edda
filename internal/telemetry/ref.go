package telemetry

import (
	"errors"

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

// refOrderBuckets fixes the order in which Refs creates a batch's new series:
// by hashSeries modulo refOrderBuckets, then argument order. Creation order is
// a contract — Select and Dump return it and the analysis layer accumulates
// floats in it — and the benchmark's pinned sweep cell fingerprints rest on
// this one.
const refOrderBuckets = 16

// Refs resolves one handle per (label set, metric) pair, sets-major, creating
// the series that do not exist yet in refOrderBuckets order.
func (st *Store) Refs(metrics []string, sets []Labels) []SeriesRef {
	if len(sets) == 0 {
		return nil
	}
	refs := make([]SeriesRef, len(sets)*len(metrics))
	hashes := make([]uint64, len(refs))
	for i := range refs {
		hashes[i] = hashSeries(metrics[i%len(metrics)], sets[i/len(metrics)])
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for b := uint64(0); b < refOrderBuckets; b++ {
		for i, hash := range hashes {
			if hash%refOrderBuckets == b {
				refs[i] = SeriesRef{st, st.getOrCreate(hash, metrics[i%len(metrics)], sets[i/len(metrics)])}
			}
		}
	}
	return refs
}

// errForeignRef rejects a handle that was not resolved on the store it is
// written to (or was never resolved at all).
var errForeignRef = errors.New("telemetry: handle from another store")

// AppendAll writes the sample (t, vals[i]) through refs[i] for every i: one
// sampling sweep as one batch under one write lock, so a reader (Select, Dump
// and the counts) sees a batch whole or not at all. A rejected sample — out
// of order, or through a handle from another store — is skipped, the rest of
// the batch lands, and the rejections come back joined. The slices belong to
// one writer.
func (st *Store) AppendAll(t sim.Time, refs []SeriesRef, vals []float64) error {
	vals = vals[:len(refs)]
	var errs []error
	st.mu.Lock()
	for i := range refs {
		if refs[i].st != st {
			errs = append(errs, errForeignRef)
		} else if err := refs[i].s.appendSample(t, vals[i]); err != nil {
			errs = append(errs, err)
		}
	}
	st.mu.Unlock()
	return errors.Join(errs...)
}
