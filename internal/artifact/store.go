// Package artifact is the content-addressed artifact store (CAS) behind
// sweeps: the blob layer that turns the SHA-256 digests
// sapsim.ArtifactDigests already computes into retrievable artifact bodies,
// and the bundle writer that materializes a finished sweep into a
// browsable, digest-verified report tree.
//
// The store keeps one write-once, fsynced file per distinct digest under a
// flat two-level fan-out (dir/ab/ab12…). Identical artifacts — the static
// tables every cell reproduces byte-for-byte — are stored exactly once no
// matter how many cells reference them. Integrity is enforced on both
// sides of every transfer: Put refuses a body whose hash does not match
// its digest, and Get re-hashes on the way out, so a blob damaged at rest
// can never masquerade as the artifact it claims to be. Verify
// distinguishes the three ways a blob goes bad — missing, truncated (size
// drifted from the journaled upload), corrupt (right size, wrong content)
// — so resume paths can report exactly what happened and re-queue the
// affected cells.
package artifact

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// DirName is the conventional store subdirectory inside a sweep (journal)
// directory.
const DirName = "cas"

// ErrInvalid marks caller-side mistakes — malformed digests and bodies
// that do not hash to their digest — as opposed to store-side failures
// (IO errors, closed journals). The dispatcher maps it to 400 and
// everything else to 500, so a worker can tell a rejected artifact from
// a dispatcher having a bad day.
var ErrInvalid = errors.New("artifact: invalid")

// The three distinct ways a stored blob fails verification. They are
// sentinel errors: callers branch with errors.Is to decide how loudly to
// report and whether a cell must re-run.
var (
	// ErrMissing: the store has no blob for the digest.
	ErrMissing = errors.New("artifact: blob missing")
	// ErrTruncated: the blob's size differs from the size recorded when it
	// was stored — an interrupted or torn write.
	ErrTruncated = errors.New("artifact: blob truncated")
	// ErrCorrupt: the blob's content no longer hashes to its digest — bit
	// rot or tampering at rest.
	ErrCorrupt = errors.New("artifact: blob corrupt")
)

// Digest returns the store's content address for a body: lowercase hex
// SHA-256, the exact form sapsim.ArtifactDigests emits.
func Digest(body []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(body))
}

// DigestSet computes the content address of every body in a rendered
// artifact set, artifact ID → digest: what a worker's completion names its
// bodies by, and what sapsim.ArtifactDigests returns.
func DigestSet(bodies map[string]string) map[string]string {
	digests := make(map[string]string, len(bodies))
	for id, text := range bodies {
		digests[id] = Digest([]byte(text))
	}
	return digests
}

// Store is a write-once content-addressed blob store rooted at one
// directory. It is safe for concurrent use.
type Store struct {
	dir string
	mu  sync.Mutex

	stats storeStats
}

// storeStats are the store's self-maintained observability counters.
// They live on the store (not in a metrics registry) so counts from work
// done before a daemon instruments the store — the Resume-time audit,
// heal, and GC — are not lost; fleet metrics export them via CounterFunc/
// GaugeFunc reads of Stats().
type storeStats struct {
	blobs, bytes                int64 // current contents
	putStored, putDedup         int64
	removed, removeFailures     int64
	gcRemoved, gcRemoveFailures int64
}

// Stats is a point-in-time snapshot of the store's observability counters.
type Stats struct {
	// Blobs and Bytes describe the store's current contents.
	Blobs, Bytes int64
	// PutStored counts new blobs written; PutDedup counts Puts that were
	// write-once no-ops (the digest was already held) — the store-side
	// half of the dedup hit rate.
	PutStored, PutDedup int64
	// Removed counts blobs deleted (heals and GC); RemoveFailures counts
	// removals that failed — a damaged blob the store could NOT heal, so a
	// re-upload of that digest would be deduplicated against the bad file.
	Removed, RemoveFailures int64
	// GCRemoved / GCRemoveFailures break out the removals driven by GC.
	GCRemoved, GCRemoveFailures int64
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Blobs:            atomic.LoadInt64(&s.stats.blobs),
		Bytes:            atomic.LoadInt64(&s.stats.bytes),
		PutStored:        atomic.LoadInt64(&s.stats.putStored),
		PutDedup:         atomic.LoadInt64(&s.stats.putDedup),
		Removed:          atomic.LoadInt64(&s.stats.removed),
		RemoveFailures:   atomic.LoadInt64(&s.stats.removeFailures),
		GCRemoved:        atomic.LoadInt64(&s.stats.gcRemoved),
		GCRemoveFailures: atomic.LoadInt64(&s.stats.gcRemoveFailures),
	}
}

// Open creates (or reopens) a store rooted at dir. Every Put is fsynced —
// this is the durable store a sweep journal depends on.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: store dir: %w", err)
	}
	s := &Store{dir: dir}
	// Seed the contents counters from what a reopened store already holds,
	// so the blob/byte gauges are right from the first scrape.
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || validDigest(d.Name()) != nil {
			return err
		}
		if info, ierr := d.Info(); ierr == nil {
			s.stats.blobs++
			s.stats.bytes += info.Size()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("artifact: scanning store: %w", err)
	}
	return s, nil
}

func validDigest(digest string) error {
	if len(digest) != sha256.Size*2 {
		return fmt.Errorf("%w: bad digest %q: want %d hex chars", ErrInvalid, digest, sha256.Size*2)
	}
	for _, c := range digest {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("%w: bad digest %q: not lowercase hex", ErrInvalid, digest)
		}
	}
	return nil
}

// blobPath fans blobs out under a two-hex-char prefix directory so one
// directory never accumulates the whole sweep.
func (s *Store) blobPath(digest string) string {
	return filepath.Join(s.dir, digest[:2], digest)
}

// Put stores a body under its digest, verifying the content hashes to the
// digest first. The write is crash-safe: body lands in a temp file, is
// fsynced, and is renamed into place, so a blob file either exists complete
// or not at all (a torn temp file is invisible to readers). Storing a
// digest the store already holds is a no-op; the bool reports whether a new
// blob was written (false = deduplicated).
func (s *Store) Put(digest string, body []byte) (bool, error) {
	if err := validDigest(digest); err != nil {
		return false, err
	}
	if got := Digest(body); got != digest {
		return false, fmt.Errorf("%w: body hashes to %s, not %s", ErrInvalid, got, digest)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.blobPath(digest)
	if _, err := os.Stat(path); err == nil {
		atomic.AddInt64(&s.stats.putDedup, 1)
		return false, nil // write-once: already stored
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return false, fmt.Errorf("artifact: blob dir: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+digest[:8]+"-*")
	if err != nil {
		return false, fmt.Errorf("artifact: temp blob: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		return false, fmt.Errorf("artifact: writing blob: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return false, fmt.Errorf("artifact: syncing blob: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return false, fmt.Errorf("artifact: closing blob: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return false, fmt.Errorf("artifact: publishing blob: %w", err)
	}
	// Make the rename itself durable.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	atomic.AddInt64(&s.stats.putStored, 1)
	atomic.AddInt64(&s.stats.blobs, 1)
	atomic.AddInt64(&s.stats.bytes, int64(len(body)))
	return true, nil
}

// Has reports whether the store holds a blob file for the digest (presence
// only; see Verify for integrity).
func (s *Store) Has(digest string) bool {
	_, err := s.Stat(digest)
	return err == nil
}

// Stat returns a held blob's size without reading it — the cheap presence
// probe behind upload dedup. ErrMissing when the store has no blob file.
func (s *Store) Stat(digest string) (int64, error) {
	if err := validDigest(digest); err != nil {
		return 0, err
	}
	st, err := os.Stat(s.blobPath(digest))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, fmt.Errorf("%w: %s", ErrMissing, digest)
		}
		return 0, fmt.Errorf("artifact: stat blob %s: %w", digest, err)
	}
	return st.Size(), nil
}

// Get returns the blob for a digest, re-hashing it on the way out: a
// missing blob returns ErrMissing, one whose content no longer matches the
// digest returns ErrCorrupt. Every read through Get is therefore
// digest-verified.
func (s *Store) Get(digest string) ([]byte, error) {
	if err := validDigest(digest); err != nil {
		return nil, err
	}
	body, err := os.ReadFile(s.blobPath(digest))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrMissing, digest)
		}
		return nil, fmt.Errorf("artifact: reading blob %s: %w", digest, err)
	}
	if got := Digest(body); got != digest {
		return nil, fmt.Errorf("%w: %s hashes to %s", ErrCorrupt, digest, got)
	}
	return body, nil
}

// Verify checks one blob's integrity without returning it, distinguishing
// the failure modes: ErrMissing (no blob file), ErrTruncated (size differs
// from the recorded size — pass size < 0 to skip the size check when no
// record survives), ErrCorrupt (content no longer hashes to the digest).
func (s *Store) Verify(digest string, size int64) error {
	if err := validDigest(digest); err != nil {
		return err
	}
	got, err := s.Stat(digest)
	if err != nil {
		return err
	}
	if size >= 0 && got != size {
		return fmt.Errorf("%w: %s is %d bytes, stored as %d", ErrTruncated, digest, got, size)
	}
	if _, err := s.Get(digest); err != nil {
		return err
	}
	return nil
}

// Remove deletes one blob (a verification failure being healed: the bad
// file must go so a re-upload of the same digest is not deduplicated away).
// Failures are counted in Stats — a removal that fails leaves a damaged
// blob in place that will shadow any re-upload, which is exactly the
// condition fleet metrics must make visible.
func (s *Store) Remove(digest string) error {
	if err := validDigest(digest); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.blobPath(digest)
	var size int64
	if st, err := os.Stat(path); err == nil {
		size = st.Size()
	}
	if err := os.Remove(path); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		atomic.AddInt64(&s.stats.removeFailures, 1)
		return fmt.Errorf("artifact: removing blob %s: %w", digest, err)
	}
	atomic.AddInt64(&s.stats.removed, 1)
	atomic.AddInt64(&s.stats.blobs, -1)
	atomic.AddInt64(&s.stats.bytes, -size)
	return nil
}

// Digests lists every stored blob digest (unsorted).
func (s *Store) Digests() ([]string, error) {
	var out []string
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if validDigest(name) == nil {
			out = append(out, name)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("artifact: listing store: %w", err)
	}
	return out, nil
}

// Len counts stored blobs — the dedup yardstick: a sweep whose cells share
// artifacts must hold fewer blobs than cells × artifacts.
func (s *Store) Len() (int, error) {
	ds, err := s.Digests()
	return len(ds), err
}

// GC removes every blob whose digest has no positive reference count in
// refs — the garbage collection a resume drives from journal replay, where
// refs counts, per digest, the finished cells whose artifact set includes
// it. Blobs uploaded for cells that never durably completed (or were
// re-queued) are the orphans this collects; a re-run re-uploads the same
// bytes under the same digest. Returns the number of blobs removed.
//
// A removal failure does not abort the pass: the remaining orphans are
// still collected, the failures are counted in Stats, and the joined
// errors come back so the caller can report (rather than silently drop)
// the orphans left behind.
func (s *Store) GC(refs map[string]int) (int, error) {
	digests, err := s.Digests()
	if err != nil {
		return 0, err
	}
	removed := 0
	var errs []error
	for _, d := range digests {
		if refs[d] > 0 {
			continue
		}
		if err := s.Remove(d); err != nil {
			atomic.AddInt64(&s.stats.gcRemoveFailures, 1)
			errs = append(errs, err)
			continue
		}
		atomic.AddInt64(&s.stats.gcRemoved, 1)
		removed++
	}
	return removed, errors.Join(errs...)
}
