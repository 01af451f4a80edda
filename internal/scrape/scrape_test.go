package scrape

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"sapsim/internal/esx"
	"sapsim/internal/exporter"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

func TestParseSimpleGauge(t *testing.T) {
	in := `# HELP foo A foo metric.
# TYPE foo gauge
foo 42
bar{a="1",b="two"} 3.14
baz{x="esc\"aped"} -7e3
`
	samples, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("parsed %d samples, want 3", len(samples))
	}
	if samples[0].Name != "foo" || samples[0].Value != 42 || samples[0].Labels.Len() != 0 {
		t.Errorf("sample 0 = %+v", samples[0])
	}
	if samples[1].Labels.Get("a") != "1" || samples[1].Labels.Get("b") != "two" || samples[1].Value != 3.14 {
		t.Errorf("sample 1 = %+v", samples[1])
	}
	if samples[2].Labels.Get("x") != `esc"aped` || samples[2].Value != -7000 {
		t.Errorf("sample 2 = %+v", samples[2])
	}
}

func TestParseWithTimestamp(t *testing.T) {
	samples, err := Parse(strings.NewReader("m{l=\"v\"} 5 1700000000000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if samples[0].Value != 5 {
		t.Errorf("value = %v", samples[0].Value)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"just_a_name\n",
		"m{unterminated=\"v 3\n",
		"m{a=\"1\"} notanumber\n",
		"m{a=1} 3\n",
		"m{noeq} 3\n",
	}
	for _, in := range bad {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	in := "\n# comment\n\nm 1\n\n"
	samples, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 {
		t.Errorf("parsed %d, want 1", len(samples))
	}
}

func TestIngestAppendsToStore(t *testing.T) {
	st := telemetry.NewStore()
	s := &Scraper{Store: st}
	n, err := s.Ingest(strings.NewReader("cpu{node=\"n1\"} 55\nmem{node=\"n1\"} 70\n"), sim.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("ingested %d, want 2", n)
	}
	series := st.Select("cpu", telemetry.Matcher{Name: "node", Value: "n1"})
	if len(series) != 1 || series[0].Sample(0).V != 55 || series[0].Sample(0).T != sim.Hour {
		t.Errorf("stored series wrong: %+v", series)
	}
}

type constProfile struct{}

func (constProfile) CPUUsage(sim.Time) float64  { return 0.4 }
func (constProfile) MemUsage(sim.Time) float64  { return 0.6 }
func (constProfile) NetTxKbps(sim.Time) float64 { return 100 }
func (constProfile) NetRxKbps(sim.Time) float64 { return 100 }
func (constProfile) DiskUsage(sim.Time) float64 { return 0.3 }
func (p constProfile) UsageAt(t sim.Time) vmmodel.Usage {
	return vmmodel.Usage{CPU: p.CPUUsage(t), Mem: p.MemUsage(t),
		TxKbps: p.NetTxKbps(t), RxKbps: p.NetRxKbps(t), Disk: p.DiskUsage(t)}
}

// End-to-end: exporter → HTTP → scraper → store, the Sec. 4 pipeline.
func TestScrapePipelineEndToEnd(t *testing.T) {
	r := topology.NewRegion("t")
	dc := r.AddAZ("a").AddDC("dc")
	cap := topology.Capacity{PCPUCores: 16, MemoryMB: 256 << 10, StorageGB: 2 << 10, NetworkGbps: 200}
	if _, err := dc.AddBB("bb-0", topology.GeneralPurpose, 2, cap); err != nil {
		t.Fatal(err)
	}
	fleet := esx.NewFleet(r, esx.DefaultConfig())
	vm := &vmmodel.VM{ID: "vm-1", Flavor: vmmodel.CatalogByName()["MK"], Project: "p", Profile: constProfile{}}
	if err := fleet.Place(vm, r.Nodes()[0], 0); err != nil {
		t.Fatal(err)
	}

	now := sim.Time(0)
	exp := &exporter.Exporter{
		Fleet:    fleet,
		VMs:      func() []*vmmodel.VM { return []*vmmodel.VM{vm} },
		Clock:    func() sim.Time { return now },
		Interval: 5 * sim.Minute,
	}
	srv := httptest.NewServer(exp.Handler())
	defer srv.Close()

	st := telemetry.NewStore()
	scraper := &Scraper{Store: st, Client: srv.Client()}

	// Two scrape rounds at different sim times.
	for _, ts := range []sim.Time{0, 5 * sim.Minute} {
		now = ts
		n, err := scraper.ScrapeTarget(srv.URL, ts)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("scraped zero samples")
		}
	}

	series := st.Select(exporter.MetricHostCPUUtil,
		telemetry.Matcher{Name: "hostsystem", Value: "bb-0-n000"})
	if len(series) != 1 {
		t.Fatalf("host CPU series = %d, want 1", len(series))
	}
	if series[0].Len() != 2 {
		t.Errorf("samples = %d, want 2", series[0].Len())
	}
	// MK = 2 vCPU × 0.4 = 0.8 cores of 16 → 5%.
	if got := series[0].Sample(0).V; got != 5 {
		t.Errorf("scraped CPU util = %v, want 5", got)
	}
	vmSeries := st.Select(exporter.MetricVMCPURatio)
	if len(vmSeries) != 1 {
		t.Errorf("VM series = %d, want 1", len(vmSeries))
	}
}

func TestScrapeTargetHTTPError(t *testing.T) {
	srv := httptest.NewServer(nil) // 404 on every path
	defer srv.Close()
	s := &Scraper{Store: telemetry.NewStore(), Client: srv.Client()}
	if _, err := s.ScrapeTarget(srv.URL+"/nope", 0); err == nil {
		t.Error("scrape of 404 target succeeded")
	}
	if _, err := s.ScrapeTarget("http://127.0.0.1:1/metrics", 0); err == nil {
		t.Error("scrape of dead target succeeded")
	}
}

func TestIngestOutOfOrderPropagates(t *testing.T) {
	st := telemetry.NewStore()
	s := &Scraper{Store: st}
	if _, err := s.Ingest(bytes.NewReader([]byte("m 1\n")), sim.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(bytes.NewReader([]byte("m 2\n")), sim.Minute); err == nil {
		t.Error("out-of-order ingest succeeded")
	}
}

// TestIngestRejectsSamplesIndividually: a sample the store refuses — out of
// order against the store, or a series repeated within one body — is
// dropped on its own; the rest of the scrape lands, the count excludes the
// rejections, and the error joins one rejection per dropped sample.
func TestIngestRejectsSamplesIndividually(t *testing.T) {
	st := telemetry.NewStore()
	s := &Scraper{Store: st}
	if _, err := s.Ingest(strings.NewReader("cpu{node=\"n1\"} 1\n"), sim.Hour); err != nil {
		t.Fatal(err)
	}
	body := "cpu{node=\"n1\"} 2\ncpu{node=\"n2\"} 3\nmem{node=\"n3\"} 4\nmem{node=\"n3\"} 5\n"
	n, err := s.Ingest(strings.NewReader(body), sim.Minute)
	if n != 2 {
		t.Errorf("ingested %d, want 2", n)
	}
	if !errors.Is(err, telemetry.ErrOutOfOrder) {
		t.Fatalf("Ingest error = %v, want ErrOutOfOrder", err)
	}
	for _, series := range []string{`cpu{node="n1"}`, `mem{node="n3"}`} {
		if !strings.Contains(err.Error(), series) {
			t.Errorf("Ingest error %q does not name %s", err, series)
		}
	}
	if got := st.Select("cpu", telemetry.Matcher{Name: "node", Value: "n2"}); len(got) != 1 || got[0].Sample(0).V != 3 {
		t.Errorf("in-order sample of the scrape missing: %v", got)
	}
	if got := st.Select("mem"); len(got) != 1 || got[0].Len() != 1 || got[0].Sample(0).V != 4 {
		t.Errorf("repeated series kept %v, want its first sample only", got)
	}
	if got := st.SampleCount(); got != 3 {
		t.Errorf("SampleCount = %d, want 3", got)
	}
}

// TestScrapeTargetsExposingOneSeries: two targets serving the same body at
// one instant both land, as two series told apart by their instance label.
func TestScrapeTargetsExposingOneSeries(t *testing.T) {
	body := "openstack_compute_instances_total 7\ncpu{node=\"n1\"} 55\n"
	a := httptest.NewServer(&metricsServer{body: body})
	defer a.Close()
	b := httptest.NewServer(&metricsServer{body: body})
	defer b.Close()
	st := telemetry.NewStore()
	s := &Scraper{Store: st}
	for _, srv := range []*httptest.Server{a, b} {
		if n, err := s.ScrapeTarget(srv.URL+"/metrics", 0); n != 2 || err != nil {
			t.Errorf("scrape %s: n=%d err=%v, want 2 samples", srv.URL, n, err)
		}
	}
	for _, metric := range []string{"openstack_compute_instances_total", "cpu"} {
		series := st.Select(metric)
		if len(series) != 2 {
			t.Fatalf("%s: %d series, want one per target", metric, len(series))
		}
		for i, srv := range []*httptest.Server{a, b} {
			if got, want := series[i].Labels.Get("instance"), strings.TrimPrefix(srv.URL, "http://"); got != want {
				t.Errorf("%s series %d instance = %q, want %q", metric, i, got, want)
			}
		}
	}
}
