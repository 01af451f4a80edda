// Package snapshot defines the versioned, digest-stamped serialization of
// complete mid-run engine state: the discrete-event queue (as rearmable
// owner/payload records), every RNG stream, the fleet and placement
// overlays, counters, the event log, and the telemetry store.
//
// A snapshot is pure data — no function values, no pointers into the live
// simulation — so it serializes with encoding/gob behind a small framed
// header. Restoring is the inverse overlay performed by
// core.RestoreSimulation: the simulation is re-assembled from the
// configuration exactly as at t=0 (the workload generator is deterministic,
// so regenerating the instance sequence reproduces the arrival plan
// bit-for-bit), then the snapshot overlays the dynamic state and the engine
// queue is re-armed through the rearmer table keyed by each event's owner.
// The restored run continues bit-identically to the uninterrupted one.
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

	"sapsim/internal/events"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

// FormatVersion is bumped whenever the serialized layout changes
// incompatibly; Decode rejects snapshots from other versions. Version 2
// carries each telemetry series as a value column with its (start, step)
// grid or explicit timestamps; version 1 carried (time, value) pairs and has
// no reader.
const FormatVersion = 2

// magic frames a snapshot stream. The trailing byte is the format version's
// low byte so even pre-header readers fail loudly on a version mismatch.
var magic = [8]byte{'S', 'A', 'P', 'S', 'N', 'A', 'P', FormatVersion}

// VMState is the dynamic overlay for one arrived workload instance. The
// static side (ID, project, profile, creation time, planned lifetime) is
// regenerated from the seed; only what the run mutated is recorded.
type VMState struct {
	// Flavor is the VM's current flavor name (differs from the generated
	// one after a resize).
	Flavor string
	// State is the vmmodel.State ordinal.
	State int
	// Node is the resident node ID, empty when unplaced (failed placement,
	// lost to a failed evacuation, or deleted).
	Node string
	// Live marks membership in the live set (a pending deletion event may
	// still reference a lost VM, which is not live).
	Live       bool
	PlacedAt   sim.Time
	DeletedAt  sim.Time
	Migrations int
}

// Counters carries the run's scalar accumulators.
type Counters struct {
	PlacementFailures int
	Resizes           int
	DRSMigrations     int
	DRSPasses         int
	CrossBBMoves      int
}

// SchedulerState carries the Nova scheduler's counters and its decision
// inputs that persist across placements.
type SchedulerState struct {
	Scheduled  int
	Failed     int
	Retries    int
	Eliminated map[string]int
	// Contention is the per-BB contention view the sampler feeds when the
	// weighers hold a ContentionWeigher, keyed by building-block ID.
	Contention map[string]float64
}

// Snapshot is the complete mid-run state of a core.Simulation, captured at
// an engine-idle boundary (between AdvanceTo segments, never inside a
// handler).
type Snapshot struct {
	// At is the capture time.
	At sim.Time
	// Fingerprint identifies the configuration the snapshot belongs to;
	// Restore refuses a mismatching config (a snapshot is only meaningful
	// against the deterministic re-assembly of the same run).
	Fingerprint string
	// NumInjectors is how many of the restoring config's injectors existed
	// at capture time. A restoring config may append further injectors —
	// that is the branching mechanism — but the first NumInjectors must
	// match the captured run.
	NumInjectors int
	// Engine is the captured event queue, clock, and counters.
	Engine sim.EngineState
	// Arrived is how many workload instances (in generation order) had
	// arrived by At; VMs holds their dynamic overlays, index-aligned.
	Arrived int
	VMs     []VMState
	// Down holds the scenario layer's out-of-service claim counts per node.
	Down map[string]int
	// RNGs holds the marshaled state of every registered live RNG stream,
	// keyed by its registration name.
	RNGs map[string][]byte
	// Counters and Sched carry the scalar accumulators.
	Counters Counters
	Sched    SchedulerState
	// Events is the scheduling-relevant event log up to At.
	Events []events.Event
	// Series is the telemetry store's contents in creation order.
	Series []telemetry.SeriesData
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
