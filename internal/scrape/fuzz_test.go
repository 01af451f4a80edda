package scrape

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"sapsim/internal/esx"
	"sapsim/internal/exporter"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

// metricName is the exposition format's metric-name grammar.
var metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// parseBounded parses data and fails if that took memory out of proportion
// to its size.
func parseBounded(t *testing.T, data []byte) ([]ParsedSample, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	samples, err := Parse(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<20+256*len(data)); got > limit {
		t.Fatalf("parsing %d bytes allocated %d, limit %d", len(data), got, limit)
	}
	return samples, err
}

// render is s as the exporter writes a sample: label values quoted with %q,
// the value with %g.
func render(s ParsedSample) string {
	return fmt.Sprintf("%s%s %g\n", s.Name, s.Labels.String(), s.Value)
}

// roundTrip fails unless s renders to a line that parses back to s: the same
// name, the same labels and the same value bits.
func roundTrip(t *testing.T, s ParsedSample) {
	t.Helper()
	line := render(s)
	back, err := Parse(strings.NewReader(line))
	if err != nil || len(back) != 1 {
		t.Fatalf("re-parsing %q: %d samples, %v", line, len(back), err)
	}
	if b := back[0]; b.Name != s.Name || !b.Labels.Equal(s.Labels) || math.Float64bits(b.Value) != math.Float64bits(s.Value) {
		t.Fatalf("%q parsed back to %s%s %g, want %s%s %g", line, b.Name, b.Labels, b.Value, s.Name, s.Labels, s.Value)
	}
}

// exporterOutput is the exporter's exposition of a one-host fleet with one
// VM, whose project label holds a brace and a quote.
func exporterOutput(tb testing.TB) []byte {
	tb.Helper()
	r := topology.NewRegion("t")
	cap := topology.Capacity{PCPUCores: 16, MemoryMB: 256 << 10, StorageGB: 2 << 10, NetworkGbps: 200}
	if _, err := r.AddAZ("a").AddDC("dc").AddBB("bb-0", topology.GeneralPurpose, 1, cap); err != nil {
		tb.Fatal(err)
	}
	fleet := esx.NewFleet(r, esx.DefaultConfig())
	vm := &vmmodel.VM{ID: "vm-1", Flavor: vmmodel.CatalogByName()["MK"], Project: `ops}"team`, Profile: constProfile{}}
	if err := fleet.Place(vm, r.Nodes()[0], 0); err != nil {
		tb.Fatal(err)
	}
	exp := &exporter.Exporter{
		Fleet:    fleet,
		VMs:      func() []*vmmodel.VM { return []*vmmodel.VM{vm} },
		Clock:    func() sim.Time { return 0 },
		Interval: 5 * sim.Minute,
	}
	var b bytes.Buffer
	if err := exp.WriteMetrics(&b); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// sameSamples reports whether a and b hold the same samples: the same names,
// the same labels and the same value bits, in the same order.
func sameSamples(a, b []ParsedSample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !a[i].Labels.Equal(b[i].Labels) ||
			math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// FuzzParse: no input makes Parse panic or allocate without bound; every
// sample it accepts has a valid metric name and re-renders, as the exporter
// writes it, to a line that parses back to the same bits; an accepted input
// whose last line is a sample is refused once a field that is no timestamp
// follows it; outside label values, blanks and tabs are interchangeable; and
// a sample whose label value is the input itself renders to a line that
// parses back to it. The seeds are the exporter's output for a small fleet
// and lines an earlier parser got wrong: a '}' inside a quoted label value,
// which it refused; a label set with no metric name, which it accepted; a
// field after the value that is no integer, or more than one, which it
// accepted; and a tab between name and value, which it refused.
func FuzzParse(f *testing.F) {
	f.Add(exporterOutput(f))
	f.Add([]byte(`x{a="}"} 1`))
	f.Add([]byte(`{a="b"} 1`))
	f.Add([]byte("x 1 garbage"))
	f.Add([]byte("x 1 2 3"))
	f.Add([]byte("x\t1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if samples, err := parseBounded(t, data); err == nil {
			for _, s := range samples {
				if !metricName.MatchString(s.Name) {
					t.Fatalf("accepted a sample with metric name %q", s.Name)
				}
				roundTrip(t, s)
			}
			last := bytes.TrimSpace(data[bytes.LastIndexByte(data, '\n')+1:])
			if !bytes.HasPrefix(last, []byte("#")) {
				more := append(bytes.Clone(data), " x"...)
				if _, err := Parse(bytes.NewReader(more)); err == nil {
					t.Fatalf("accepted %q, a sample followed by a field that is no timestamp", more)
				}
			}
		}
		if !bytes.ContainsRune(data, '"') {
			spaced, errS := Parse(bytes.NewReader(bytes.ReplaceAll(data, []byte("\t"), []byte(" "))))
			tabbed, errT := Parse(bytes.NewReader(bytes.ReplaceAll(data, []byte(" "), []byte("\t"))))
			if (errS == nil) != (errT == nil) || !sameSamples(spaced, tabbed) {
				t.Fatalf("%q parses differently with blanks (%v) and with tabs (%v)", data, errS, errT)
			}
		}
		labels, err := telemetry.NewLabels("a", string(data))
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, ParsedSample{Name: "x", Labels: labels, Value: 1})
	})
}
