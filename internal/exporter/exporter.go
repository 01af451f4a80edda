// Package exporter reproduces the measurement plane of Sec. 4: the vROps
// exporter (VMware metrics) and the MySQL/Nova exporter (OpenStack
// metrics), both exposing Prometheus text format over HTTP. A scraper
// (internal/scrape) pulls from these endpoints into the telemetry store,
// exercising the same exporter → scrape → TSDB path as production.
package exporter

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"sapsim/internal/esx"
	"sapsim/internal/sim"
	"sapsim/internal/vmmodel"
)

// Metric names, verbatim from Appendix C, Table 4.
const (
	MetricHostCPUUtil      = "vrops_hostsystem_cpu_core_utilization_percentage"
	MetricHostMemUsage     = "vrops_hostsystem_memory_usage_percentage"
	MetricHostNetRx        = "vrops_hostsystem_network_bytes_rx_kbps"
	MetricHostNetTx        = "vrops_hostsystem_network_bytes_tx_kbps"
	MetricHostDiskUsage    = "vrops_hostsystem_diskspace_usage_gigabytes"
	MetricHostCPUCont      = "vrops_hostsystem_cpu_contention_percentage"
	MetricHostCPUReady     = "vrops_hostsystem_cpu_ready_milliseconds"
	MetricVMCPURatio       = "vrops_virtualmachine_cpu_usage_ratio"
	MetricVMMemRatio       = "vrops_virtualmachine_memory_consumed_ratio"
	MetricInstancesTotal   = "openstack_compute_instances_total"
	MetricNodeVCPUs        = "openstack_compute_nodes_vcpus_gauge"
	MetricNodeVCPUsUsed    = "openstack_compute_nodes_vcpus_used_gauge"
	MetricNodeMemoryMB     = "openstack_compute_nodes_memory_mb_gauge"
	MetricNodeMemoryMBUsed = "openstack_compute_nodes_memory_mb_used_gauge"
)

// CatalogEntry is one row of Table 4.
type CatalogEntry struct {
	Name        string
	Subsystem   string
	Resource    string
	Description string
}

// Catalog reproduces Table 4.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{MetricHostCPUUtil, "Compute host", "CPU", "Utilization of CPU per compute host"},
		{MetricHostMemUsage, "Compute host", "Memory", "Utilization of compute host memory"},
		{MetricHostNetRx, "Compute host", "Network", "Received network traffic"},
		{MetricHostNetTx, "Compute host", "Network", "Transmitted network traffic"},
		{MetricHostDiskUsage, "Compute host", "Storage", "Utilization of local storage"},
		{MetricHostCPUCont, "Compute host", "CPU", "Observed CPU contention per compute host"},
		{MetricHostCPUReady, "Compute host", "CPU", "Duration a VM is ready but waits for scheduling"},
		{MetricVMCPURatio, "VM", "CPU", "Percentage of requested and used CPU"},
		{MetricVMMemRatio, "VM", "Memory", "Percentage of requested and used memory"},
		{MetricInstancesTotal, "Region", "-", "Total number of VMs within the regional deployment"},
		{MetricNodeVCPUs, "Compute host", "CPU", "Number of vCPUs per compute host"},
		{MetricNodeVCPUsUsed, "Compute host", "CPU", "Number of used vCPUs per compute host"},
		{MetricNodeMemoryMB, "Compute host", "Memory", "Amount of memory in MB per compute host"},
		{MetricNodeMemoryMBUsed, "Compute host", "Memory", "Amount of utilized memory in MB per compute host"},
	}
}

// sample is one exposition line.
type sample struct {
	name   string
	labels []string // alternating k, v
	value  float64
}

// Exporter renders the simulated fleet in Prometheus text format. Clock
// supplies the simulation time at scrape; Interval is the accumulation
// window for ready-time.
type Exporter struct {
	Fleet *esx.Fleet
	// VMs returns the currently active VMs (for the vROps VM metrics and
	// the Nova instance gauge).
	VMs func() []*vmmodel.VM
	// Clock returns the current simulation time.
	Clock func() sim.Time
	// Interval is the sampling period (30 s – 300 s in production).
	Interval sim.Time
}

// collect gathers all samples at the current clock.
func (e *Exporter) collect() []sample {
	now := e.Clock()
	var out []sample
	add := func(name string, value float64, labels ...string) {
		out = append(out, sample{name: name, labels: labels, value: value})
	}

	e.Fleet.EachHost(func(h *esx.Host) {
		if h.Node.Maintenance {
			return // vROps reports no data for maintenance hosts
		}
		nodeLabels := []string{
			"hostsystem", string(h.Node.ID),
			"cluster", string(h.Node.BB.ID),
			"datacenter", h.Node.Datacenter().Name,
		}
		m := h.Snapshot(now, e.Interval)
		add(MetricHostCPUUtil, m.CPUUtilPct, nodeLabels...)
		add(MetricHostMemUsage, m.MemUsagePct, nodeLabels...)
		add(MetricHostNetTx, m.TxKbps, nodeLabels...)
		add(MetricHostNetRx, m.RxKbps, nodeLabels...)
		add(MetricHostDiskUsage, m.StorageUsedGB, nodeLabels...)
		add(MetricHostCPUCont, m.CPUContentionPct, nodeLabels...)
		add(MetricHostCPUReady, m.CPUReadyMillis, nodeLabels...)
		add(MetricNodeVCPUs, float64(h.VCPUCapacity()), nodeLabels...)
		add(MetricNodeVCPUsUsed, float64(h.AllocatedVCPUs()), nodeLabels...)
		add(MetricNodeMemoryMB, float64(h.MemCapacityMB()), nodeLabels...)
		add(MetricNodeMemoryMBUsed, float64(h.AllocatedMemMB()), nodeLabels...)

		h.EachVMSnapshot(now, e.Interval, m.CPUContentionPct, func(vm *vmmodel.VM, u esx.VMUsage) {
			vmLabels := []string{
				"virtualmachine", string(vm.ID),
				"hostsystem", string(h.Node.ID),
				"project", vm.Project,
				"flavor", vm.Flavor.Name,
			}
			add(MetricVMCPURatio, u.CPUUsageRatio, vmLabels...)
			add(MetricVMMemRatio, u.MemUsageRatio, vmLabels...)
		})
	})
	if e.VMs != nil {
		add(MetricInstancesTotal, float64(len(e.VMs())))
	}
	return out
}

// WriteMetrics renders the exposition text format.
func (e *Exporter) WriteMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	samples := e.collect()
	byName := map[string][]sample{}
	var names []string
	for _, s := range samples {
		if _, ok := byName[s.name]; !ok {
			names = append(names, s.name)
		}
		byName[s.name] = append(byName[s.name], s)
	}
	sort.Strings(names)
	help := map[string]string{}
	for _, c := range Catalog() {
		help[c.Name] = c.Description
	}
	for _, name := range names {
		if h := help[name]; h != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, h)
		}
		fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
		for _, s := range byName[name] {
			if len(s.labels) == 0 {
				fmt.Fprintf(bw, "%s %g\n", name, s.value)
				continue
			}
			var lb strings.Builder
			for i := 0; i < len(s.labels); i += 2 {
				if i > 0 {
					lb.WriteByte(',')
				}
				fmt.Fprintf(&lb, "%s=%q", s.labels[i], s.labels[i+1])
			}
			fmt.Fprintf(bw, "%s{%s} %g\n", name, lb.String(), s.value)
		}
	}
	return bw.Flush()
}

// Handler serves the /metrics endpoint.
func (e *Exporter) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := e.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
