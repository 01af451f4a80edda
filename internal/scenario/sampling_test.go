package scenario

import (
	"testing"

	"sapsim/internal/core"
	"sapsim/internal/events"
	"sapsim/internal/exporter"
	"sapsim/internal/sim"
)

// TestVMSweepSamplesEveryLiveVM: the VM sampler walks host residents, and
// the instance count it records is the live set's size, so the two agree
// only while every live VM is resident on exactly one host. At every VM
// tick, through failures, evacuations that lose VMs, drains and capacity
// expansion, the number of VMs with a CPU sample at t must equal
// openstack_compute_instances_total at t.
func TestVMSweepSamplesEveryLiveVM(t *testing.T) {
	base, err := core.NewSimulation(testConfig(1), core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	nodes := base.Result().Region.NodeCount()
	var lost, grown int
	for _, name := range []string{"host-failures", "az-outage", "maintenance-drain",
		"correlated-failures", "capacity-expansion", "cascading-failures", "black-friday"} {
		sc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(4)
		cfg.VMSampleEvery = sim.Hour
		res, err := core.Run(sc.Configure(cfg))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sampled := map[sim.Time]int{}
		for _, s := range res.Store.Select(exporter.MetricVMCPURatio) {
			for i := 0; i < s.Len(); i++ {
				sampled[s.Sample(i).T]++
			}
		}
		total := res.Store.Select(exporter.MetricInstancesTotal)
		if len(total) != 1 || total[0].Len() < 4*24 {
			t.Fatalf("%s: instance count series %v, want one with a sample per hour", name, total)
		}
		for i := 0; i < total[0].Len(); i++ {
			smp := total[0].Sample(i)
			if got := sampled[smp.T]; float64(got) != smp.V {
				t.Errorf("%s at %v: %d VMs sampled, %v live", name, smp.T, got, smp.V)
			}
		}
		lost += res.Events.CountByType()[events.EvacuateFailed]
		grown += res.Region.NodeCount() - nodes
	}
	if lost == 0 || grown == 0 {
		t.Errorf("%d VMs lost to evacuation, %d nodes added: the scenarios exercise neither", lost, grown)
	}
}
