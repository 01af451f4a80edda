package dispatch

import (
	"fmt"
	"slices"
)

// BlobKind names what a pointer into the sweep's content-addressed store
// points at. It doubles as the journal's "t" token for pointer records.
type BlobKind string

const (
	// BlobArtifact is a rendered artifact body. Its pointers are a done
	// cell's Run.Digests; they are never recorded one by one.
	BlobArtifact BlobKind = "artifact"
	// BlobProfile is a finished cell's encoded engine self-profile
	// (sapsim.EncodeProfileBytes): what analyze -engprof aggregates.
	BlobProfile BlobKind = "profile"
)

// BlobRef is a recorded pointer to one blob in the store, binding it to a
// cell. A profile's body rides in the completion, which records the
// pointer. Losing a pointer is cheap — one cell's attribution — so the
// queue journals it without an fsync.
type BlobRef struct {
	Kind   BlobKind
	Digest string
}

// Validate rejects pointers a worker may not record: an unknown kind (a
// version-skewed worker), an artifact pointer (those travel in the
// completion), or a missing address. It gates Queue.RecordBlob and journal
// replay.
func (r BlobRef) Validate() error {
	switch {
	case r.Kind != BlobProfile:
		return fmt.Errorf("dispatch: blob pointer of kind %q is not recordable", r.Kind)
	case r.Digest == "":
		return fmt.Errorf("dispatch: %s pointer missing blob digest", r.Kind)
	}
	return nil
}

// blobPolicy is one row of the pointer-lifetime table. The table is the
// whole design of the blob path: recording, superseding, dropping, the
// Resume audit, healing, and GC all read it instead of knowing the kinds.
type blobPolicy struct {
	kind BlobKind
	// live are the cell states a pointer of this kind means something in.
	// Outside them the pointer is cleared and its blob reclaimed.
	live []JobState
	// requeue says what a damaged or missing blob costs on Resume: the
	// cell's completion (it re-runs with a fresh attempt budget — disk rot
	// is not the cell's fault), or merely the pointer.
	requeue bool
	// cost words that consequence in Recovered().
	cost string
}

var blobPolicies = [...]blobPolicy{
	{BlobArtifact, []JobState{JobDone}, true, "cells requeued"},
	{BlobProfile, []JobState{JobDone, JobFailed}, false, "pointers dropped, cells stay done"},
}

// slot is where the job keeps its recorded pointer of a kind; artifacts
// have none.
func (j *Job) slot(kind BlobKind) **BlobRef {
	if kind == BlobProfile {
		return &j.Profile
	}
	return nil
}

// pointers calls fn with the digest of every blob the job points at under
// one kind.
func (j *Job) pointers(kind BlobKind, fn func(digest string)) {
	if slot := j.slot(kind); slot != nil {
		if *slot != nil {
			fn((*slot).Digest)
		}
	} else if j.Run != nil {
		for _, digest := range j.Run.Digests {
			fn(digest)
		}
	}
}

// settle clears the recorded pointers the job's state has no use for —
// called after every state transition, live or replayed — and returns the
// digests they held.
func (j *Job) settle() []string {
	var dead []string
	for _, p := range blobPolicies {
		if slot := j.slot(p.kind); slot != nil && *slot != nil && !slices.Contains(p.live, j.State) {
			dead = append(dead, (*slot).Digest)
			*slot = nil
		}
	}
	return dead
}
