package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"

	"sapsim/internal/sim"
)

func testSnapshot() *Snapshot {
	return &Snapshot{
		At:          36 * sim.Hour,
		Fired:       48213,
		Fingerprint: "cfg-fingerprint",
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := testSnapshot()
	blob, err := EncodeBytes(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", got, want)
	}
	// A snapshot holds no map, so its encoding is a function of its value.
	again, err := EncodeBytes(want)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := Digest(blob), Digest(again); d1 != d2 || len(d1) != 64 {
		t.Fatalf("Digest unstable or malformed: %q vs %q", d1, d2)
	}
}

// TestDecodeRejectsDamage: every way a blob can rot in storage or transit
// must surface as ErrCorrupt — never a silent partial decode.
func TestDecodeRejectsDamage(t *testing.T) {
	blob, err := EncodeBytes(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]func([]byte) []byte{
		"empty":            func(b []byte) []byte { return nil },
		"short header":     func(b []byte) []byte { return b[:headerLen-1] },
		"bad magic":        func(b []byte) []byte { b[0] ^= 0xff; return b },
		"truncated":        func(b []byte) []byte { return b[:len(b)-1] },
		"payload bit flip": func(b []byte) []byte { b[headerLen+len(b[headerLen:])/2] ^= 0x01; return b },
		"digest bit flip":  func(b []byte) []byte { b[12] ^= 0x01; return b },
		"length overflow": func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[12+32:], 1<<40)
			return b
		},
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			b := corrupt(append([]byte(nil), blob...))
			if _, err := DecodeBytes(b); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	blob, err := EncodeBytes(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	skewed := append([]byte(nil), blob...)
	// A coherent future version: both the magic's version byte and the
	// header field agree, so this is version skew, not corruption.
	skewed[7] = FormatVersion + 1
	binary.BigEndian.PutUint32(skewed[8:12], FormatVersion+1)
	if _, err := DecodeBytes(skewed); !errors.Is(err, ErrVersion) {
		t.Fatalf("decode = %v, want ErrVersion", err)
	}
	// A version byte that disagrees with the header field is also skew
	// (the pre-header reader path the magic byte exists for).
	mixed := append([]byte(nil), blob...)
	mixed[7] = FormatVersion + 1
	if _, err := DecodeBytes(mixed); !errors.Is(err, ErrVersion) {
		t.Fatalf("decode = %v, want ErrVersion", err)
	}
}

// TestDecodeRejectsV1: a snapshot written before the store became columnar
// (format 1: telemetry as (time, value) pairs) is refused as version skew,
// by both readers, before its payload is looked at.
func TestDecodeRejectsV1(t *testing.T) {
	blob, err := EncodeBytes(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	blob[7] = 1
	binary.BigEndian.PutUint32(blob[8:12], 1)
	if _, err := DecodeBytes(blob); !errors.Is(err, ErrVersion) {
		t.Errorf("DecodeBytes(v1) = %v, want ErrVersion", err)
	}
	if _, err := Decode(bytes.NewReader(blob)); !errors.Is(err, ErrVersion) {
		t.Errorf("Decode(v1) = %v, want ErrVersion", err)
	}
}

// TestDecodeRejectsV2: a snapshot written while snapshots carried the
// engine's whole state (format 2: event queue, VM overlay, RNG streams,
// telemetry store) is refused as version skew by both readers. The blob in
// testdata was written by a format-2 build.
func TestDecodeRejectsV2(t *testing.T) {
	blob, err := os.ReadFile("testdata/v2.snap")
	if err != nil {
		t.Fatal(err)
	}
	if blob[7] != 2 || binary.BigEndian.Uint32(blob[8:12]) != 2 {
		t.Fatalf("testdata/v2.snap is framed as v%d/v%d, want v2", blob[7], binary.BigEndian.Uint32(blob[8:12]))
	}
	if _, err := DecodeBytes(blob); !errors.Is(err, ErrVersion) {
		t.Errorf("DecodeBytes(v2) = %v, want ErrVersion", err)
	}
	if _, err := Decode(bytes.NewReader(blob)); !errors.Is(err, ErrVersion) {
		t.Errorf("Decode(v2) = %v, want ErrVersion", err)
	}
}

// TestDecodeDoesNotTrustDeclaredLength: a sound header declaring a 15 GiB
// payload with no payload behind it is a truncated blob. It used to cost a
// 15 GiB allocation to find that out.
func TestDecodeDoesNotTrustDeclaredLength(t *testing.T) {
	blob, err := EncodeBytes(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	hdr := blob[:headerLen:headerLen]
	binary.BigEndian.PutUint64(hdr[12+32:], 15<<30)
	for name, decode := range map[string]func() (*Snapshot, error){
		"DecodeBytes": func() (*Snapshot, error) { return DecodeBytes(hdr) },
		"Decode":      func() (*Snapshot, error) { return Decode(bytes.NewReader(hdr)) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decode()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s = %v, want ErrCorrupt", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s allocated %d bytes for a %d-byte input, want < 1 MiB", name, got, len(hdr))
		}
	}
}
