package dispatch

import (
	"errors"
	"io/fs"
	"net/http"
	"path"

	"sapsim/internal/artifact"
)

// maxBlobBytes caps a completion, whose artifact bodies and profile are
// blobs.
const maxBlobBytes = 64 << 20

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

// handleArtifactGet serves one blob of the store by digest, re-hashed on
// the way out.
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
