package exporter

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"sapsim/internal/esx"
	"sapsim/internal/sim"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

type constProfile struct{ cpu, mem float64 }

func (p constProfile) UsageAt(sim.Time) vmmodel.Usage {
	return vmmodel.Usage{CPU: p.cpu, Mem: p.mem, TxKbps: 500, RxKbps: 700, Disk: 0.25}
}

func testExporter(t *testing.T) (*Exporter, *esx.Fleet) {
	t.Helper()
	r := topology.NewRegion("t")
	dc := r.AddAZ("a").AddDC("dc-a")
	cap := topology.Capacity{PCPUCores: 32, MemoryMB: 512 << 10, StorageGB: 4 << 10, NetworkGbps: 200}
	if _, err := dc.AddBB("bb-0", topology.GeneralPurpose, 2, cap); err != nil {
		t.Fatal(err)
	}
	fleet := esx.NewFleet(r, esx.DefaultConfig())
	vm := &vmmodel.VM{ID: "vm-1", Flavor: vmmodel.CatalogByName()["MJ"], Project: "proj-1", Profile: constProfile{cpu: 0.5, mem: 0.8}}
	if err := fleet.Place(vm, r.Nodes()[0], 0); err != nil {
		t.Fatal(err)
	}
	e := &Exporter{
		Fleet:    fleet,
		VMs:      func() []*vmmodel.VM { return []*vmmodel.VM{vm} },
		Clock:    func() sim.Time { return sim.Hour },
		Interval: 5 * sim.Minute,
	}
	return e, fleet
}

func TestCatalogMatchesTable4(t *testing.T) {
	cat := Catalog()
	if len(cat) != 14 {
		t.Errorf("catalog has %d rows, Table 4 has 14", len(cat))
	}
	seen := map[string]bool{}
	for _, c := range cat {
		if seen[c.Name] {
			t.Errorf("duplicate metric %s", c.Name)
		}
		seen[c.Name] = true
		if !strings.HasPrefix(c.Name, "vrops_") && !strings.HasPrefix(c.Name, "openstack_compute_") {
			t.Errorf("metric %s lacks the vrops/openstack_compute prefix (Sec. 4)", c.Name)
		}
		if c.Description == "" {
			t.Errorf("metric %s missing description", c.Name)
		}
	}
}

func TestWriteMetricsFormat(t *testing.T) {
	e, _ := testExporter(t)
	var buf bytes.Buffer
	if err := e.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE " + MetricHostCPUUtil + " gauge",
		MetricHostCPUUtil + `{hostsystem="bb-0-n000",cluster="bb-0",datacenter="dc-a"} 25`,
		MetricVMCPURatio + `{virtualmachine="vm-1",hostsystem="bb-0-n000",project="proj-1",flavor="MJ"} 0.5`,
		MetricInstancesTotal + " 1",
		MetricNodeVCPUs,
		MetricHostCPUReady,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// HELP lines must come from the Table 4 catalog.
	if !strings.Contains(out, "# HELP "+MetricHostCPUCont+" Observed CPU contention per compute host") {
		t.Error("missing HELP line for contention metric")
	}
}

func TestMaintenanceHostOmitted(t *testing.T) {
	e, fleet := testExporter(t)
	fleet.Region().Nodes()[1].Maintenance = true
	var buf bytes.Buffer
	if err := e.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "bb-0-n001") {
		t.Error("maintenance host present in exposition (should be a white cell)")
	}
}

func TestHandlerServesHTTP(t *testing.T) {
	e, _ := testExporter(t)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), MetricHostMemUsage) {
		t.Error("HTTP exposition missing host memory metric")
	}
}

func TestExporterClockDriven(t *testing.T) {
	e, _ := testExporter(t)
	now := sim.Hour
	e.Clock = func() sim.Time { return now }
	var a, b bytes.Buffer
	if err := e.WriteMetrics(&a); err != nil {
		t.Fatal(err)
	}
	now = 20 * sim.Hour
	if err := e.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	// Same fleet, same constant profile → identical host CPU lines; the
	// point is that collection re-evaluates at the new clock without
	// error and emits the same series set.
	if a.Len() == 0 || b.Len() == 0 {
		t.Error("empty exposition")
	}
}
