package dispatch

import (
	"errors"
	"io"
	"io/fs"
	"net/http"
	"path"
	"strconv"

	"sapsim/internal/artifact"
)

// The /artifact blob endpoints: the upload/fetch half of the CAS wire
// protocol. HEAD and PUT carry the one blob that must land before the
// pointer naming it, mid-run: a snapshot. The worker probes before it
// uploads, so a re-booked cell that snapshots at an instant its previous
// holder covered sends nothing. Artifact bodies and profiles ride in the
// completion instead. GET serves every kind, for warm resume and the
// bundle.

// maxBlobBytes caps a blob PUT and a completion, whose bodies are blobs too.
const maxBlobBytes = 64 << 20

func (d *Dispatcher) handleArtifactHead(w http.ResponseWriter, r *http.Request) {
	// A stat, deliberately not a content verification: integrity is
	// enforced where bytes move — Put refuses mismatched bodies, Get
	// re-hashes on the way out — and Resume audits the whole store at rest.
	size, err := d.queue.Store().Stat(r.PathValue("digest"))
	if err != nil {
		d.headMisses.Inc()
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	d.headHits.Inc()
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
}

func (d *Dispatcher) handleArtifactPut(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBlobBytes))
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	stored, err := d.queue.PutArtifact(digest, body)
	if err != nil {
		blobError(w, err)
		return
	}
	if !stored {
		w.WriteHeader(http.StatusOK) // deduplicated
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// blobError answers a failed Queue.PutArtifact. A body that doesn't hash to
// its digest is the client's fault; a store that can't write is ours —
// workers must be able to tell a rejected blob from a dispatcher having a
// bad day.
func blobError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, artifact.ErrInvalid) {
		status = http.StatusBadRequest
	}
	http.Error(w, err.Error(), status)
}

func (d *Dispatcher) handleArtifactGet(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	body, err := d.queue.Store().Get(digest)
	switch {
	case errors.Is(err, artifact.ErrMissing):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, artifact.ErrInvalid):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(body)
	}
}

// The /bundle tree is artifact.Bundle over the queue's cells, mounted as is:
// every path of the on-disk layout serves the bytes WriteBundle would write
// there. The index and finished cells' bodies serve while the sweep runs;
// whatever summarizes the whole sweep answers 425 until it drains, like
// /result.
func (d *Dispatcher) serveBundle(w http.ResponseWriter, r *http.Request) {
	rel := r.PathValue("path")
	body, err := d.queue.bundle().Open(rel)
	switch {
	case errors.Is(err, artifact.ErrNotReady):
		http.Error(w, err.Error(), http.StatusTooEarly)
	case errors.Is(err, fs.ErrNotExist):
		http.Error(w, err.Error(), http.StatusNotFound)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		kind := "text/plain"
		if rel == "" || path.Ext(rel) == ".html" {
			kind = "text/html"
		}
		w.Header().Set("Content-Type", kind+"; charset=utf-8")
		_, _ = w.Write(body)
	}
}
