// Package cli is what every sapsim command shares: the cell-config flag
// vocabulary (each flag's name, usage text and mapping onto core.Config)
// and the process plumbing around a command's run function.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sapsim"
	"sapsim/internal/core"
	"sapsim/internal/dispatch"
	"sapsim/internal/pprofserve"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
)

// A cellFlag selects cell-config flags a command takes. -timeout is not
// one: every command takes it.
type cellFlag uint8

const (
	seedFlag cellFlag = 1 << iota
	scaleFlag
	vmsFlag
	daysFlag
	sampleFlag
	// matrixFlags is the sweep-matrix triple -scenarios, -variants, -seeds.
	matrixFlags
)

// Cell is one command's parsed cell-config flags.
type Cell struct {
	Timeout time.Duration

	flags cellFlag
	// base supplies the defaults of the flags and every field no flag sets.
	base                       core.Config
	sample                     time.Duration
	scenarios, variants, seeds string
}

// cells is the flag table: which cell-config flags each command takes and
// their defaults. sweep and dispatchd share one base because both must
// expand the same matrix from the same flags.
var cells = map[string]Cell{
	"repro":     {flags: seedFlag | scaleFlag | vmsFlag | daysFlag | sampleFlag, base: core.DefaultConfig(2024)},
	"sapsim":    {flags: seedFlag | scaleFlag | vmsFlag | daysFlag | sampleFlag, base: core.DefaultConfig(2024)},
	"sweep":     {flags: scaleFlag | vmsFlag | daysFlag | sampleFlag | matrixFlags, base: sweepBase()},
	"dispatchd": {flags: scaleFlag | vmsFlag | daysFlag | sampleFlag | matrixFlags, base: sweepBase()},
	"exporter":  {flags: seedFlag | scaleFlag | vmsFlag, base: core.Config{Seed: 1, Scale: 0.02, VMs: 400}},
	"analyze":   {flags: daysFlag, base: core.Config{Days: 30}},
	"simworker": {},
}

func sweepBase() core.Config {
	cfg := core.DefaultConfig(2024)
	cfg.Scale, cfg.VMs, cfg.Days, cfg.SampleEvery = 0.02, 960, 10, 15*sim.Minute
	return cfg
}

// Flags returns the named command's flag set, which reports to stderr,
// with the command's cell-config flags from the table declared on it.
func Flags(name string, stderr io.Writer) (*flag.FlagSet, *Cell) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := cells[name]
	b := &c.base
	c.sample = time.Duration(b.SampleEvery)
	if c.flags&seedFlag != 0 {
		fs.Uint64Var(&b.Seed, "seed", b.Seed, "random seed (runs are deterministic per seed)")
	}
	if c.flags&scaleFlag != 0 {
		fs.Float64Var(&b.Scale, "scale", b.Scale, "region scale (1.0 = 1,823 hypervisors)")
	}
	if c.flags&vmsFlag != 0 {
		fs.IntVar(&b.VMs, "vms", b.VMs, "initial VM population")
	}
	if c.flags&daysFlag != 0 {
		fs.IntVar(&b.Days, "days", b.Days, "observation window in days")
	}
	if c.flags&sampleFlag != 0 {
		fs.DurationVar(&c.sample, "sample", c.sample, "host sampling interval")
	}
	if c.flags&matrixFlags != 0 {
		fs.StringVar(&c.scenarios, "scenarios", "", "comma-separated scenario names (default: all builtin)")
		fs.StringVar(&c.variants, "variants", "default", `comma-separated variant names ("all" = every builtin)`)
		fs.StringVar(&c.seeds, "seeds", "2024", "comma-separated seeds")
	}
	fs.DurationVar(&c.Timeout, "timeout", 0, "wall-clock limit (0 = none)")
	return fs, &c
}

// Config is the base config with the parsed flags applied.
func (c *Cell) Config() core.Config {
	cfg := c.base
	cfg.SampleEvery = sim.Time(c.sample)
	return cfg
}

// Spec expands the parsed -scenarios/-variants/-seeds matrix over Config.
func (c *Cell) Spec(checkpoint sim.Time) (dispatch.Spec, error) {
	return dispatch.ParseSpec(c.Config(), c.scenarios, c.variants, c.seeds, checkpoint)
}

// Context derives a context from parent that also expires after -timeout
// when one is set.
func (c *Cell) Context(parent context.Context) (context.Context, context.CancelFunc) {
	if c.Timeout > 0 {
		return context.WithTimeout(parent, c.Timeout)
	}
	return context.WithCancel(parent)
}

// Interruptible returns the context a long-running command runs under:
// canceled on SIGINT or SIGTERM, and after -timeout when one is set. A
// non-empty pprofAddr also serves net/http/pprof there, announced on stderr
// under the command's name.
func (c *Cell) Interruptible(name, pprofAddr string, stderr io.Writer) (context.Context, context.CancelFunc, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if pprofAddr != "" {
		bound, err := pprofserve.Serve(pprofAddr)
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Fprintf(stderr, "%s: pprof at http://%s/debug/pprof/\n", name, bound)
	}
	ctx, cancel := c.Context(ctx)
	return ctx, func() { cancel(); stop() }, nil
}

// Simulate runs Config to completion through a Session, logging per-day
// progress to stderr under the command's name when progress is set. A run
// cut by -timeout reports the simulated time it reached.
func (c *Cell) Simulate(name string, progress bool, stderr io.Writer) (*sapsim.Result, error) {
	ctx, cancel := c.Context(context.Background())
	defer cancel()
	opts := []sapsim.Option{sapsim.WithContext(ctx)}
	if progress {
		opts = append(opts, sapsim.WithObserver(sapsim.LogDailyProgress(stderr, name)))
	}
	session, err := sapsim.NewSession(c.Config(), opts...)
	if err != nil {
		return nil, err
	}
	defer session.Close()
	if err := session.RunToCompletion(); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("timed out after %v at simulated %s: %w", c.Timeout, session.Now(), err)
		}
		return nil, err
	}
	return session.Result()
}

// Report prints a finished sweep's comparative report and its artifact
// diff, and returns the first failed run as an error.
func Report(w io.Writer, res *scenario.SweepResult) error {
	fmt.Fprint(w, scenario.Comparative(res))
	fmt.Fprint(w, scenario.ArtifactDiff(res))
	for _, r := range res.Runs {
		if r.Err != "" {
			return fmt.Errorf("run %s/%s seed %d: %s", r.Key.Scenario, r.Key.Variant, r.Key.Seed, r.Err)
		}
	}
	return nil
}

// Logf returns a line logger writing to w with each line prefixed.
func Logf(w io.Writer, prefix string) func(format string, args ...any) {
	return func(format string, args ...any) {
		fmt.Fprintf(w, prefix+format+"\n", args...)
	}
}

// usageError is a flag error the flag set has already printed with usage.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// Parse parses args into fs.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	return nil
}

// Main runs a command on the process arguments and exits: 0 on success
// or -h, 2 on a flag error, 1 with the error on stderr otherwise. A run
// may write stderr from several goroutines, as os.Stderr allows.
func Main(name string, run func(args []string, stdout, stderr io.Writer) error) {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var usage usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return
	case errors.As(err, &usage):
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	os.Exit(1)
}
