// Command sapsim runs a full simulation of the SAP Cloud Infrastructure
// regional deployment and exports the resulting telemetry as the anonymized
// CSV dataset (the Zenodo-artifact equivalent).
//
// Usage:
//
//	sapsim [-seed N] [-scale F] [-vms N] [-days N] [-timeout D] -o dataset.csv
//
// -timeout bounds the wall-clock run time; an exceeded deadline cancels the
// simulation cleanly mid-tick. -progress streams per-day progress to
// stderr.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"

	"sapsim/internal/cli"
	"sapsim/internal/dataset"
	"sapsim/internal/events"
	"sapsim/internal/vmmodel"
)

func main() { cli.Main("sapsim", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs, cell := cli.Flags("sapsim", stderr)
	var (
		progress = fs.Bool("progress", true, "print per-day progress to stderr")
		out      = fs.String("o", "dataset.csv", "output CSV path")
		evOut    = fs.String("events", "", "also export the scheduling event stream to this CSV")
		flOut    = fs.String("flavors", "", "also export the flavor catalog to this CSV")
		salt     = fs.String("salt", "sap-cloud-dataset", "anonymization salt")
		raw      = fs.Bool("raw", false, "skip anonymization (keep entity names)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	start := time.Now()
	res, err := cell.Simulate("sapsim", *progress, stderr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "simulated %d days: %d nodes, %d VMs, %d series, %d samples (%v)\n",
		res.Config.Days, res.Region.NodeCount(), len(res.VMs),
		res.Store.SeriesCount(), res.Store.SampleCount(), time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "scheduler: %d placed, %d failed, %d retries; DRS migrations: %d\n",
		res.SchedStats.Scheduled, res.SchedStats.Failed, res.SchedStats.Retries, res.DRSMigrations)

	opts := dataset.WriteOptions{}
	if !*raw {
		opts.Anonymizer = dataset.NewAnonymizer(*salt)
		opts.AnonymizeLabels = dataset.DefaultAnonymizedLabels()
	}
	size, err := writeFile(*out, func(w io.Writer) error { return dataset.Write(w, res.Store, opts) })
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dataset written: %s (%.1f MiB)\n", *out, float64(size)/(1<<20))

	if *evOut != "" {
		// Avoid handing WriteCSV a typed-nil interface when -raw is set.
		var anon events.Anonymizer
		if opts.Anonymizer != nil {
			anon = opts.Anonymizer
		}
		if _, err := writeFile(*evOut, func(w io.Writer) error { return res.Events.WriteCSV(w, anon) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "events written: %s (%d events)\n", *evOut, res.Events.Len())
	}

	if *flOut != "" {
		if _, err := writeFile(*flOut, func(w io.Writer) error { return dataset.WriteFlavors(w, vmmodel.Catalog()) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "flavors written: %s\n", *flOut)
	}
	return nil
}

// writeFile creates path, fills it through a buffer with write, flushes
// and closes it, and returns the file's size. A failed close fails the
// write: the file may be truncated.
func writeFile(path string, write func(io.Writer) error) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := write(w); err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return info.Size(), f.Close()
}
