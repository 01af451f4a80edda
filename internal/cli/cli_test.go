package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"sapsim/internal/core"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
)

func flagNames(fs *flag.FlagSet) string {
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	return strings.Join(names, " ")
}

func TestFlagTable(t *testing.T) {
	for name, want := range map[string]string{
		"repro":     "days sample scale seed timeout vms",
		"sapsim":    "days sample scale seed timeout vms",
		"sweep":     "days sample scale scenarios seeds timeout variants vms",
		"dispatchd": "days sample scale scenarios seeds timeout variants vms",
		"exporter":  "scale seed timeout vms",
		"analyze":   "days timeout",
		"simworker": "timeout",
	} {
		fs, _ := Flags(name, &bytes.Buffer{})
		if got := flagNames(fs); got != want {
			t.Errorf("%s registers %q, want %q", name, got, want)
		}
	}
}

func TestConfigAppliesFlags(t *testing.T) {
	fs, cell := Flags("repro", &bytes.Buffer{})
	if got := cell.Config(); !reflect.DeepEqual(got, core.DefaultConfig(2024)) {
		t.Errorf("unparsed repro cell = %+v, want DefaultConfig(2024)", got)
	}
	if err := Parse(fs, []string{"-seed", "7", "-scale", "0.5", "-vms", "9", "-days", "3", "-sample", "1h", "-timeout", "2s"}); err != nil {
		t.Fatal(err)
	}
	want := core.DefaultConfig(7)
	want.Scale, want.VMs, want.Days, want.SampleEvery = 0.5, 9, 3, sim.Hour
	if got := cell.Config(); !reflect.DeepEqual(got, want) {
		t.Errorf("parsed cell = %+v, want %+v", got, want)
	}
	if cell.Timeout != 2*time.Second {
		t.Errorf("timeout = %v", cell.Timeout)
	}
}

// sweep and dispatchd must expand the same flags into the same matrix.
func TestSweepAndDispatchdAgree(t *testing.T) {
	args := []string{"-scenarios", "baseline,host-failures", "-seeds", "7,11", "-days", "2"}
	var specs []any
	for _, name := range []string{"sweep", "dispatchd"} {
		fs, cell := Flags(name, &bytes.Buffer{})
		if err := Parse(fs, args); err != nil {
			t.Fatal(err)
		}
		spec, err := cell.Spec(0)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	if !reflect.DeepEqual(specs[0], specs[1]) {
		t.Errorf("sweep spec %+v != dispatchd spec %+v", specs[0], specs[1])
	}
}

func TestParseErrors(t *testing.T) {
	var out bytes.Buffer
	fs, _ := Flags("simworker", &out)
	err := Parse(fs, []string{"-h"})
	if !errors.Is(err, flag.ErrHelp) || !strings.Contains(out.String(), "-timeout") {
		t.Errorf("-h: err %v, usage %q", err, out.String())
	}
	fs, _ = Flags("simworker", &out)
	var usage usageError
	if err := Parse(fs, []string{"-bogus"}); !errors.As(err, &usage) {
		t.Errorf("bad flag: err %v, want a usage error", err)
	}
}

func TestContextTimeout(t *testing.T) {
	fs, cell := Flags("simworker", &bytes.Buffer{})
	if err := Parse(fs, []string{"-timeout", "1ms"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := cell.Context(context.Background())
	defer cancel()
	<-ctx.Done()
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Errorf("ctx.Err() = %v", ctx.Err())
	}
	_, cell = Flags("simworker", &bytes.Buffer{})
	ctx, cancel = cell.Context(context.Background())
	cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Error("no -timeout still set a deadline")
	}
}

// TestInterruptible: the command context ends on SIGTERM, -pprof serves
// and is announced under the command's name, and a bad -pprof address is
// an error.
func TestInterruptible(t *testing.T) {
	var stderr bytes.Buffer
	_, cell := Flags("simworker", &stderr)
	ctx, cancel, err := cell.Interruptible("simworker", "127.0.0.1:0", &stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	url, ok := strings.CutPrefix(strings.TrimSpace(stderr.String()), "simworker: pprof at ")
	if !ok {
		t.Fatalf("stderr = %q, want the pprof announcement", stderr.String())
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s = %d", url, resp.StatusCode)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("SIGTERM did not cancel the context")
	}
	if _, _, err := cell.Interruptible("simworker", "bad:address:", &stderr); err == nil ||
		!strings.HasPrefix(err.Error(), "pprof listener: ") {
		t.Errorf("bad -pprof address: err %v", err)
	}
}

func TestReportFailsOnFailedRun(t *testing.T) {
	res := &scenario.SweepResult{Runs: []scenario.Run{
		{Key: scenario.Key{Scenario: "baseline", Variant: "default", Seed: 7}},
		{Key: scenario.Key{Scenario: "host-failures", Variant: "default", Seed: 7}, Err: "boom"},
	}}
	var out bytes.Buffer
	err := Report(&out, res)
	if err == nil || err.Error() != "run host-failures/default seed 7: boom" {
		t.Errorf("err = %v", err)
	}
}

func TestLogf(t *testing.T) {
	var out bytes.Buffer
	Logf(&out, "sweep: ")("%d cells", 4)
	if out.String() != "sweep: 4 cells\n" {
		t.Errorf("logged %q", out.String())
	}
}
