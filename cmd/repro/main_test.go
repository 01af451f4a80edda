package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny is a cell small enough to simulate in well under a second.
var tiny = []string{"-scale", "0.01", "-vms", "150", "-days", "2", "-sample", "15m", "-progress=false"}

func runRepro(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(append(append([]string{}, tiny...), args...), &stdout, &stderr)
	return stdout.String(), err
}

// headings returns the "=== <id>" prefix of every artifact heading.
func headings(out string) []string {
	var ids []string
	for _, line := range strings.Split(out, "\n") {
		if id, ok := strings.CutPrefix(line, "=== "); ok {
			ids = append(ids, "=== "+strings.SplitN(id, ":", 2)[0])
		}
	}
	return ids
}

func TestOnlySelectsMatchingArtifacts(t *testing.T) {
	out, err := runRepro(t, "-only", "table[12]")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(headings(out), ","); got != "=== table1,=== table2" {
		t.Errorf("headings = %q, want table1 and table2 only\n%s", got, out)
	}
}

func TestIDPrintsFullText(t *testing.T) {
	out, err := runRepro(t, "-id", "table1")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(headings(out), ","); got != "=== table1" {
		t.Errorf("headings = %q, want table1", got)
	}
	if !strings.Contains(out, "paper:") || !strings.Contains(out, "measured:") {
		t.Errorf("no paper/measured lines:\n%s", out)
	}
}

func TestSelectionErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-id", "table1", "-only", "table"},
		{"-only", "nosuchartifact"},
		{"-only", "("},
		{"-id", "fig99"},
	} {
		if _, err := runRepro(t, args...); err == nil {
			t.Errorf("%v succeeded", args)
		}
	}
}

func TestOutWritesOneFilePerArtifact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "artifacts")
	out, err := runRepro(t, "-only", "^fig1[23]$", "-out", dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
		if body, err := os.ReadFile(filepath.Join(dir, e.Name())); err != nil || len(body) == 0 {
			t.Errorf("%s: empty or unreadable (%v)", e.Name(), err)
		}
	}
	if got := strings.Join(names, ","); got != "fig12.txt,fig13.txt" {
		t.Errorf("files = %q, want fig12.txt,fig13.txt", got)
	}
	if strings.Count(out, "written:") != 2 {
		t.Errorf("want two written: lines:\n%s", out)
	}
}

func TestTimeoutReportsSimulatedTime(t *testing.T) {
	_, err := runRepro(t, "-timeout", "1ns", "-only", "table1")
	if err == nil || !strings.Contains(err.Error(), "timed out after 1ns at simulated") {
		t.Errorf("err = %v, want a timeout naming the simulated time", err)
	}
}
