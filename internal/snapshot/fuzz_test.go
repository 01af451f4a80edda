package snapshot_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"sapsim/internal/core"
	"sapsim/internal/sim"
	"sapsim/internal/snapshot"
	"sapsim/internal/telemetry"
)

const headerLen = 8 + 4 + sha256.Size + 8

// smallCellSnapshot is the encoded state of a 40-VM cell half a day into its
// run, sampled hourly: a few thousand samples, so a fuzz execution is fast.
func smallCellSnapshot(tb testing.TB) []byte {
	tb.Helper()
	cfg := core.DefaultConfig(3)
	cfg.Scale, cfg.VMs, cfg.Days = 0.01, 40, 2
	cfg.SampleEvery, cfg.VMSampleEvery = sim.Hour, 3*sim.Hour
	s, err := core.NewSimulation(cfg, core.Hooks{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.AdvanceTo(sim.Day/2, nil); err != nil {
		tb.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	blob, err := snapshot.EncodeBytes(snap)
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// frame puts a sound header — right magic, version, length and digest — in
// front of payload, so that what the fuzzer does to a payload reaches the gob
// decoder and Store.Load instead of stopping at the digest check.
func frame(payload []byte) []byte {
	out := make([]byte, headerLen, headerLen+len(payload))
	copy(out, "SAPSNAP")
	out[7] = snapshot.FormatVersion
	binary.BigEndian.PutUint32(out[8:12], snapshot.FormatVersion)
	sum := sha256.Sum256(payload)
	copy(out[12:], sum[:])
	binary.BigEndian.PutUint64(out[12+sha256.Size:], uint64(len(payload)))
	return append(out, payload...)
}

// decodeBounded decodes blob and fails if that took memory out of proportion
// to the input. The constant is encoding/gob's: it sizes a slice from the
// length the stream declares, in steps of at most 10 MiB per nesting level.
func decodeBounded(t *testing.T, blob []byte) (*snapshot.Snapshot, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap, err := snapshot.DecodeBytes(blob)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<20+64*len(blob)); got > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", len(blob), got, limit)
	}
	if err != nil && !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("DecodeBytes = %v, want ErrCorrupt or ErrVersion", err)
	}
	return snap, err
}

// FuzzDecode: no input makes Decode panic or allocate without bound; the two
// readers agree; and whatever decodes survives a second trip through the
// encoder unchanged and is either loaded by the telemetry store or refused
// by it with an error. Re-encoding is compared by content, not by bytes: gob
// writes map entries in iteration order, so the bytes of one snapshot differ
// from one Encode to the next (TestEncodeDecodeRoundTrip).
func FuzzDecode(f *testing.F) {
	blob := smallCellSnapshot(f)
	f.Add(blob)
	f.Add(blob[:len(blob)*2/3])
	flipped := bytes.Clone(blob)
	flipped[headerLen+len(blob)/2] ^= 0x10
	f.Add(flipped)
	v1 := bytes.Clone(blob[:headerLen+64])
	v1[7] = 1
	binary.BigEndian.PutUint32(v1[8:12], 1)
	f.Add(v1)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeBounded(t, data)
		if _, streamErr := snapshot.Decode(bytes.NewReader(data)); (err == nil) != (streamErr == nil) {
			t.Fatalf("DecodeBytes = %v but Decode = %v", err, streamErr)
		}
		if err == nil {
			// Only an encoder produces a digest that checks out, so this
			// is a snapshot some run captured: the store must take it.
			if err := telemetry.NewStore().Load(snap.Series); err != nil {
				t.Fatalf("a snapshot with a sound digest does not load: %v", err)
			}
		}
		reframed, _ := decodeBounded(t, frame(data[min(len(data), headerLen):]))
		for _, s := range []*snapshot.Snapshot{snap, reframed} {
			if s == nil {
				continue
			}
			again, err := snapshot.EncodeBytes(s)
			if err != nil {
				t.Fatalf("re-encoding a decoded snapshot: %v", err)
			}
			back, err := snapshot.DecodeBytes(again)
			if err != nil {
				t.Fatalf("decoding a re-encoded snapshot: %v", err)
			}
			if a, b := fmt.Sprintf("%+v", s), fmt.Sprintf("%+v", back); a != b {
				t.Fatalf("snapshot changed on its second trip through the encoder:\n%s\n%s", a, b)
			}
			st := telemetry.NewStore()
			if err := st.Load(s.Series); err == nil {
				n := 0
				for _, d := range s.Series {
					n += len(d.Values)
				}
				if st.SeriesCount() != len(s.Series) || st.SampleCount() != n {
					t.Fatalf("loaded %d series / %d samples of %d / %d", st.SeriesCount(), st.SampleCount(), len(s.Series), n)
				}
			}
		}
	})
}
