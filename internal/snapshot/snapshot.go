// Package snapshot defines the versioned, digest-stamped serialization of a
// replay point in a run: the simulated time, the number of events fired by
// then, and the fingerprint of the configuration that produced them.
//
// A snapshot carries no state. The run is deterministic, so
// core.RestoreSimulation rebuilds the state by re-assembling the simulation
// from the configuration and replaying it to the snapshot's time, and then
// checks that the replay fired exactly the snapshot's number of events. The
// restored run continues bit-identically to the uninterrupted one. A resume
// needs the captured config exactly, injectors included: a what-if with a
// different injector is a cold run of its own config.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"

	"sapsim/internal/sim"
)

// FormatVersion is bumped whenever the serialized layout changes
// incompatibly; Decode rejects snapshots from other versions. Version 3
// holds only the replay point; version 2 carried the engine queue, the VM
// overlay, the RNG streams and the telemetry store, and version 1 carried
// telemetry as (time, value) pairs. Neither has a reader.
const FormatVersion = 3

// magic frames a snapshot stream. The trailing byte is the format version's
// low byte so even pre-header readers fail loudly on a version mismatch.
var magic = [8]byte{'S', 'A', 'P', 'S', 'N', 'A', 'P', FormatVersion}

// Snapshot is a replay point of a core.Simulation, taken at an engine-idle
// boundary (between AdvanceTo segments, never inside a handler).
type Snapshot struct {
	// At is the capture time.
	At sim.Time
	// Fired is how many engine events had fired by At. A replay that
	// reaches At after a different count is not the captured run.
	Fired uint64
	// Fingerprint identifies the configuration the snapshot belongs to,
	// injectors included; Restore refuses any other config (a snapshot is
	// only meaningful against the deterministic re-assembly of the same
	// run).
	Fingerprint string
}

// ErrCorrupt is returned when a snapshot stream fails its integrity checks
// (bad magic, digest mismatch, or malformed payload).
var ErrCorrupt = errors.New("snapshot: corrupt snapshot")

// ErrVersion is returned for a structurally sound snapshot written by an
// incompatible format version.
var ErrVersion = errors.New("snapshot: unsupported format version")

// Encode serializes the snapshot: an 8-byte magic (embedding the format
// version), a big-endian uint32 format version, the SHA-256 digest of the
// gob payload, a big-endian uint64 payload length, then the payload. The
// digest stamp makes bit flips and truncation detectable without decoding.
func Encode(w io.Writer, s *Snapshot) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	var hdr [headerLen]byte
	copy(hdr[:8], magic[:])
	binary.BigEndian.PutUint32(hdr[8:12], FormatVersion)
	copy(hdr[12:12+sha256.Size], sum[:])
	binary.BigEndian.PutUint64(hdr[12+sha256.Size:], uint64(payload.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// EncodeBytes is Encode into a fresh byte slice.
func EncodeBytes(s *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

const headerLen = 8 + 4 + sha256.Size + 8

// parseHeader checks magic and version and returns the payload's digest and
// declared length.
func parseHeader(hdr []byte) (want [sha256.Size]byte, n uint64, err error) {
	if len(hdr) < headerLen {
		return want, 0, fmt.Errorf("%w: short header: %d bytes", ErrCorrupt, len(hdr))
	}
	if !bytes.Equal(hdr[:7], magic[:7]) {
		return want, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	ver := binary.BigEndian.Uint32(hdr[8:12])
	if hdr[7] != byte(ver) || ver != FormatVersion {
		return want, 0, fmt.Errorf("%w: got v%d, want v%d", ErrVersion, ver, FormatVersion)
	}
	copy(want[:], hdr[12:12+sha256.Size])
	return want, binary.BigEndian.Uint64(hdr[12+sha256.Size:]), nil
}

// Decode reads and verifies a snapshot stream: magic, version, digest, and
// length must all check out before the payload is decoded. Corruption —
// truncation, bit flips, trailing garbage in the length field — surfaces as
// ErrCorrupt; a foreign format version as ErrVersion. The declared length is
// not trusted: memory grows with the bytes the stream actually delivers.
func Decode(r io.Reader) (*Snapshot, error) {
	var hdr [headerLen]byte
	k, _ := io.ReadFull(r, hdr[:])
	want, n, err := parseHeader(hdr[:k])
	if err != nil {
		return nil, err
	}
	if n > math.MaxInt64 {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, n)
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil || uint64(len(payload)) != n {
		return nil, fmt.Errorf("%w: truncated payload: %d of %d bytes: %v", ErrCorrupt, len(payload), n, err)
	}
	return decodePayload(payload, want)
}

// DecodeBytes is Decode from a byte slice, without copying the payload.
func DecodeBytes(b []byte) (*Snapshot, error) {
	want, n, err := parseHeader(b)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b)-headerLen) {
		return nil, fmt.Errorf("%w: truncated payload: %d of %d bytes", ErrCorrupt, len(b)-headerLen, n)
	}
	return decodePayload(b[headerLen:headerLen+int(n)], want)
}

func decodePayload(payload []byte, want [sha256.Size]byte) (*Snapshot, error) {
	if sha256.Sum256(payload) != want {
		return nil, fmt.Errorf("%w: payload digest mismatch", ErrCorrupt)
	}
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: gob: %v", ErrCorrupt, err)
	}
	return &s, nil
}

// Digest returns the hex SHA-256 of the snapshot's encoded form — the
// content address a CAS stores the blob under.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
