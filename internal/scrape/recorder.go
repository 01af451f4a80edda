package scrape

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

// FleetDataset is the file name a Recorder writes inside its directory.
// The file is a standard dataset CSV (metric,ts_seconds,value,labels), so
// dataset.Read loads it back into a telemetry store for post-sweep
// analysis.
const FleetDataset = "fleet.csv"

// Recorder is the fleet flight recorder: it polls a set of Prometheus
// /metrics endpoints at a fixed wall-clock cadence and records every
// sample twice — into an in-memory telemetry store for live queries, and
// appended to an on-disk dataset CSV that survives the recorder (and
// whatever it was watching) crashing. Sample timestamps are wall-clock
// seconds since the recording started, so a post-mortem replay of the
// dataset lines up with the sweep's own duration.
//
// Each sample gains an "instance" label carrying the target's host:port,
// so one recording distinguishes the dispatcher from every worker even
// when they export the same metric names.
type Recorder struct {
	// Targets are the /metrics URLs to poll each round.
	Targets []string
	// Every is the polling cadence; one second when unset.
	Every time.Duration
	// Store receives the samples; a fresh store is created when nil.
	Store *telemetry.Store
	// Client is the HTTP client; http.DefaultClient when nil.
	Client *http.Client
	// Logf reports skipped scrapes (target down, malformed exposition).
	// Silent when nil. A dead target never aborts the recording — flight
	// recorders keep running through the crash they exist to explain.
	Logf func(format string, args ...any)
	// Now is the clock; time.Now when nil.
	Now func() time.Time
}

// Recording is an open recorder session bound to a directory. Rounds
// append to the dataset as they happen; rows already written survive a
// kill at any point.
type Recording struct {
	r       *Recorder
	store   *telemetry.Store
	client  *http.Client
	now     func() time.Time
	start   time.Time
	base    sim.Time // timestamp offset when resuming an existing dataset
	f       *os.File
	cw      *csv.Writer
	rounds  int
	samples int
}

// Open prepares a recording in dir, creating it if needed. The dataset
// file is opened in append mode: re-opening an existing recording
// continues it rather than truncating history.
func (r *Recorder) Open(dir string) (*Recording, error) {
	if len(r.Targets) == 0 {
		return nil, fmt.Errorf("recorder: no targets")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recorder: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, FleetDataset), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("recorder: %w", err)
	}
	rec := &Recording{
		r:      r,
		store:  r.Store,
		client: r.Client,
		now:    r.Now,
		f:      f,
		cw:     csv.NewWriter(f),
	}
	if rec.store == nil {
		rec.store = telemetry.NewStore()
	}
	if rec.client == nil {
		rec.client = http.DefaultClient
	}
	if rec.now == nil {
		rec.now = time.Now
	}
	rec.start = rec.now()
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("recorder: %w", err)
	}
	if st.Size() == 0 {
		if err := rec.cw.Write([]string{"metric", "ts_seconds", "value", "labels"}); err != nil {
			f.Close()
			return nil, fmt.Errorf("recorder: %w", err)
		}
	} else {
		// Resuming an existing recording: new timestamps must stay
		// strictly after everything already on disk, or reloading the
		// dataset would trip the store's out-of-order check.
		base, err := datasetHighWater(filepath.Join(dir, FleetDataset))
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("recorder: resuming %s: %w", FleetDataset, err)
		}
		rec.base = base + sim.Time(time.Millisecond)
	}
	return rec, nil
}

// Store returns the in-memory store the recording feeds.
func (rec *Recording) Store() *telemetry.Store { return rec.store }

// Rounds reports how many polling rounds have completed.
func (rec *Recording) Rounds() int { return rec.rounds }

// Samples reports how many samples have been recorded in total.
func (rec *Recording) Samples() int { return rec.samples }

// Round polls every target once, stamping all samples of the round with
// the same timestamp (wall time elapsed since Open). Unreachable targets
// are logged and skipped; the round still lands for the rest of the
// fleet. The dataset file is flushed and fsynced before Round returns,
// so a crash loses at most the in-flight round.
func (rec *Recording) Round() (int, error) {
	t := rec.base + sim.Time(rec.now().Sub(rec.start))
	n := 0
	for _, target := range rec.r.Targets {
		got, err := rec.scrape(target, t)
		n += got
		if err != nil {
			rec.logf("recorder: %v", err)
		}
	}
	rec.cw.Flush()
	if err := rec.cw.Error(); err != nil {
		return n, fmt.Errorf("recorder: %w", err)
	}
	if err := rec.f.Sync(); err != nil {
		return n, fmt.Errorf("recorder: %w", err)
	}
	rec.rounds++
	rec.samples += n
	return n, nil
}

// scrape pulls one target and records its samples at time t. Partial
// results count: rows written before a mid-body parse error stay.
func (rec *Recording) scrape(target string, t sim.Time) (int, error) {
	resp, err := rec.client.Get(target)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", target, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d", target, resp.StatusCode)
	}
	samples, err := Parse(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", target, err)
	}
	instance := instanceLabel(target)
	n := 0
	for _, smp := range samples {
		labels := smp.Labels.With("instance", instance)
		// Append first, write second: a sample the store rejects (e.g. a
		// duplicate series within one exposition body) must not reach the
		// dataset either, or reloading it with dataset.Read would fail on
		// the same rejection.
		if err := rec.store.Append(smp.Name, labels, t, smp.Value); err != nil {
			rec.logf("recorder: %s: %s%s: %v", target, smp.Name, labels, err)
			continue
		}
		if err := rec.cw.Write([]string{
			smp.Name,
			strconv.FormatFloat(t.Seconds(), 'f', -1, 64),
			strconv.FormatFloat(smp.Value, 'g', -1, 64),
			flatLabels(labels),
		}); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Close flushes and closes the dataset file.
func (rec *Recording) Close() error {
	rec.cw.Flush()
	werr := rec.cw.Error()
	if err := rec.f.Close(); err != nil {
		return err
	}
	return werr
}

func (rec *Recording) logf(format string, args ...any) {
	if rec.r.Logf != nil {
		rec.r.Logf(format, args...)
	}
}

// Run records into dir until ctx is canceled: one round immediately,
// then one per cadence tick. It returns the closed recording, whose
// Rounds and Samples summarize it. Scrape failures are logged and
// survived; only dataset I/O errors abort the recording.
func (r *Recorder) Run(ctx context.Context, dir string) (*Recording, error) {
	rec, err := r.Open(dir)
	if err != nil {
		return nil, err
	}
	every := r.Every
	if every <= 0 {
		every = time.Second
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		if _, err := rec.Round(); err != nil {
			rec.Close()
			return nil, err
		}
		select {
		case <-ctx.Done():
			return rec, rec.Close()
		case <-tick.C:
		}
	}
}

// datasetHighWater scans a dataset CSV for its maximum timestamp.
func datasetHighWater(path string) (sim.Time, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	cr := csv.NewReader(f)
	cr.FieldsPerRecord = 4
	if _, err := cr.Read(); err != nil { // header
		return 0, err
	}
	var max sim.Time
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return max, nil
		}
		if err != nil {
			return 0, err
		}
		secs, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return 0, fmt.Errorf("bad timestamp %q", row[1])
		}
		if t := sim.Time(secs * float64(sim.Second)); t > max {
			max = t
		}
	}
}

// instanceLabel derives the "instance" label value from a target URL:
// its host:port, or the raw string when it does not parse.
func instanceLabel(target string) string {
	if u, err := url.Parse(target); err == nil && u.Host != "" {
		return u.Host
	}
	return target
}

// flatLabels renders a label set in the dataset CSV form (k=v;k2=v2).
func flatLabels(l telemetry.Labels) string {
	pairs := l.Pairs()
	if len(pairs) == 0 {
		return ""
	}
	out := make([]byte, 0, 64)
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			out = append(out, ';')
		}
		out = append(out, pairs[i]...)
		out = append(out, '=')
		out = append(out, pairs[i+1]...)
	}
	return string(out)
}
