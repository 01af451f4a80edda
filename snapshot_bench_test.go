package sapsim

import (
	"testing"
)

// benchMidpointSnapshot drives the full-cell benchmark config to the middle
// of its horizon and captures one snapshot — the state a dispatched worker
// would ship on its heartbeat. Built once per benchmark, outside the timer.
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
// snapshot to its wire form — the cost a worker's heartbeat loop pays per
// snapshot it ships.
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

// BenchmarkRestore measures the warm-boot path end to end: decode the wire
// form, rehydrate a session from it, and build to the point where Step
// could continue. This is what a re-booked cell pays instead of re-running
// the whole prefix from t=0.
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
