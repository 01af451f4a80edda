// Command exporter serves a live simulated fleet's metrics in Prometheus
// text format over HTTP — the vROps/Nova exporter stand-in of Sec. 4. The
// simulation clock advances in real time at a configurable speedup, so a
// real Prometheus (or cmd/analyze after scraping) can pull from it.
//
// Usage:
//
//	exporter [-addr :9100] [-speedup 3600] [-scale 0.02] [-vms 400] [-timeout D]
//
// -timeout serves for the given wall-clock duration and then shuts down
// gracefully (useful for scrape smoke tests); 0 serves forever.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"sapsim/internal/cli"
	"sapsim/internal/esx"
	"sapsim/internal/exporter"
	"sapsim/internal/nova"
	"sapsim/internal/placement"
	"sapsim/internal/sim"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
	"sapsim/internal/workload"
)

func main() { cli.Main("exporter", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs, cell := cli.Flags("exporter", stderr)
	var (
		addr    = fs.String("addr", ":9100", "listen address")
		speedup = fs.Float64("speedup", 3600, "simulated seconds per wall-clock second")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	cfg := cell.Config()

	region, err := topology.Build(topology.DefaultBuildSpec(cfg.Scale))
	if err != nil {
		return err
	}
	fleet := esx.NewFleet(region, esx.DefaultConfig())
	sched, err := nova.NewScheduler(fleet, placement.NewService(), nova.DefaultConfig())
	if err != nil {
		return err
	}

	// Place the initial population.
	spec := workload.DefaultSpec(cfg.VMs, cfg.Seed)
	var live []*vmmodel.VM
	for _, in := range workload.NewGenerator(spec).Generate() {
		if in.ArriveAt > 0 {
			continue
		}
		if _, err := sched.Schedule(&nova.RequestSpec{VM: in.VM}, 0); err == nil {
			live = append(live, in.VM)
		}
	}
	fmt.Fprintf(stdout, "fleet up: %d nodes, %d VMs placed\n", region.NodeCount(), len(live))

	start := time.Now()
	exp := &exporter.Exporter{
		Fleet: fleet,
		VMs:   func() []*vmmodel.VM { return live },
		Clock: func() sim.Time {
			return sim.Time(float64(time.Since(start)) * *speedup)
		},
		Interval: 5 * sim.Minute,
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", exp.Handler())
	server := &http.Server{Handler: mux}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serving Prometheus metrics on %s/metrics (speedup %.0fx)\n", ln.Addr(), *speedup)
	ctx, cancel := cell.Context(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- server.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(stdout, "exporter: %v elapsed, shutting down\n", cell.Timeout)
	shutdown, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShutdown()
	_ = server.Shutdown(shutdown) // a scrape still open after the grace period is cut
	<-served
	return nil
}
