package engprof_test

import (
	"bytes"
	"reflect"
	"testing"

	"sapsim/internal/core"
	"sapsim/internal/engprof"
	"sapsim/internal/sim"
)

// smallCellProfile is the encoded self-profile of a 40-VM, two-day cell
// sampled hourly: every top-level phase and a realistic owner table.
func smallCellProfile(tb testing.TB) []byte {
	tb.Helper()
	cfg := core.DefaultConfig(3)
	cfg.Scale, cfg.VMs, cfg.Days = 0.01, 40, 2
	cfg.SampleEvery, cfg.VMSampleEvery = sim.Hour, 3*sim.Hour
	s, err := core.NewSimulation(cfg, core.Hooks{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.AdvanceTo(cfg.Horizon(), nil); err != nil {
		tb.Fatal(err)
	}
	blob, err := s.Result().Profile.EncodeBytes()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// FuzzDecode: no input makes DecodeBytes panic; a profile it accepts
// survives a second trip through the encoder unchanged; and merging it into
// a fresh profile — what analyze -engprof does with every file of a sweep
// directory — does not panic and carries its totals over.
func FuzzDecode(f *testing.F) {
	blob := smallCellProfile(f)
	f.Add(blob)
	f.Add(blob[:len(blob)*2/3])
	garbled := bytes.Clone(blob)
	garbled[len(garbled)/2] ^= 0x20
	f.Add(garbled)
	f.Add(bytes.Replace(blob, []byte(`"Format": 1`), []byte(`"Format": 2`), 1))
	f.Add([]byte(`{"Format": 1, "Phases": null, "Owners": [null, {"Owner": "x", "Nanos": -1}], "Cells": 0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := engprof.DecodeBytes(data)
		if err != nil {
			return
		}
		again, err := p.EncodeBytes()
		if err != nil {
			t.Fatalf("re-encoding a decoded profile: %v", err)
		}
		back, err := engprof.DecodeBytes(again)
		if err != nil {
			t.Fatalf("decoding a re-encoded profile: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("profile changed on its second trip through the encoder:\n%+v\n%+v", p, back)
		}
		merged := engprof.New().Profile()
		merged.Merge(p)
		if merged.Events != p.Events || merged.AccountedNanos != p.AccountedNanos || merged.Cells != 1+p.Cells {
			t.Fatalf("merge into a fresh profile: events %d, accounted %d, cells %d; want %d, %d, %d",
				merged.Events, merged.AccountedNanos, merged.Cells, p.Events, p.AccountedNanos, 1+p.Cells)
		}
	})
}
