package trace

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// readBounded reads a Chrome trace and fails if that took memory out of
// proportion to its size.
func readBounded(t *testing.T, data []byte) ([]Span, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	spans, err := ReadChromeTrace(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<20+256*len(data)); got > limit {
		t.Fatalf("reading %d bytes allocated %d, limit %d", len(data), got, limit)
	}
	return spans, err
}

// FuzzReadChromeTrace: no input makes ReadChromeTrace panic or allocate
// without bound, and a trace it accepts writes back and re-reads to the
// same spans. The seeds are the two-cell trace analyze's tests read
// (a cell span and one attempt span per cell) and a truncated copy.
func FuzzReadChromeTrace(f *testing.F) {
	var spans []Span
	for i, tr := range []string{"baseline/default/seed7", "host-failures/default/seed7"} {
		id := []string{"cell-0", "cell-1"}[i]
		spans = append(spans,
			Span{Trace: tr, ID: id, Name: "cell", Start: 0, End: 2_000_000},
			Span{Trace: tr, ID: id + "/a1", Parent: id, Name: "attempt", Start: 100, End: 1_900_000,
				Attrs: map[string]string{"worker": "w"}})
	}
	var seed bytes.Buffer
	if err := WriteChromeTrace(&seed, spans); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := readBounded(t, data)
		if err != nil {
			return
		}
		Analyze(spans).Report(io.Discard)
		var out bytes.Buffer
		if err := WriteChromeTrace(&out, spans); err != nil {
			t.Fatalf("writing back an accepted trace: %v", err)
		}
		back, err := ReadChromeTrace(&out)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(spans, back) {
			t.Fatalf("spans changed on a trip through the writer:\n%+v\n%+v", spans, back)
		}
	})
}
