package sapsim

import (
	"testing"
)

// benchMidpointSnapshot drives the full-cell benchmark config to the middle
// of its horizon and takes one snapshot. Built once per benchmark, outside
// the timer.
func benchMidpointSnapshot(b *testing.B) (Config, *Snapshot) {
	b.Helper()
	cfg := fullCellConfig(42)
	s, err := NewSession(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// 144 ticks x 15 min = 36h of the 72h horizon.
	if _, err := s.Step(144); err != nil {
		b.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	return cfg, snap
}

// BenchmarkSnapshotEncode measures serializing a midpoint full-cell
// snapshot to its wire form.
func BenchmarkSnapshotEncode(b *testing.B) {
	_, snap := benchMidpointSnapshot(b)
	blob, err := EncodeSnapshotBytes(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeSnapshotBytes(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore measures the resume path end to end: decode the wire
// form, build a session from it, and replay to the point where Step could
// continue. The replay re-runs the prefix, so this is about the cost of
// half a cell.
func BenchmarkRestore(b *testing.B) {
	cfg, snap := benchMidpointSnapshot(b)
	blob, err := EncodeSnapshotBytes(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decoded, err := DecodeSnapshotBytes(blob)
		if err != nil {
			b.Fatal(err)
		}
		s, err := ResumeFromSnapshot(cfg, decoded)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Build(); err != nil {
			b.Fatal(err)
		}
		if s.Now() != snap.At {
			b.Fatalf("restored to %v, want %v", s.Now(), snap.At)
		}
		s.Close()
	}
}
