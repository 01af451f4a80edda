package events

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"sapsim/internal/dataset"
	"sapsim/internal/sim"
)

func TestAppendAndOrder(t *testing.T) {
	var l Log
	if err := l.Append(Event{At: sim.Hour, Type: Create, VM: "vm-1", Flavor: "MK"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Event{At: sim.Hour, Type: Delete, VM: "vm-1"}); err != nil {
		t.Fatal(err) // equal timestamps are allowed
	}
	if err := l.Append(Event{At: sim.Minute, Type: Create, VM: "vm-2"}); !errors.Is(err, ErrBadEvent) {
		t.Errorf("out-of-order append error = %v", err)
	}
	if l.Len() != 2 {
		t.Errorf("len = %d", l.Len())
	}
}

func TestAppendValidation(t *testing.T) {
	var l Log
	if err := l.Append(Event{Type: "party", VM: "x"}); !errors.Is(err, ErrBadEvent) {
		t.Errorf("unknown type error = %v", err)
	}
	if err := l.Append(Event{Type: Create}); !errors.Is(err, ErrBadEvent) {
		t.Errorf("missing vm error = %v", err)
	}
}

func TestCountByTypeAndChurn(t *testing.T) {
	var l Log
	seq := []Event{
		{At: sim.Hour, Type: Create, VM: "a"},
		{At: 2 * sim.Hour, Type: Create, VM: "b"},
		{At: 3 * sim.Hour, Type: MigrateIntraBB, VM: "a", Source: "n1", Target: "n2"},
		{At: sim.Day + sim.Hour, Type: Resize, VM: "a", Flavor: "MC"},
		{At: sim.Day + 2*sim.Hour, Type: Delete, VM: "b"},
		{At: 2*sim.Day + sim.Hour, Type: ScheduleFailed, VM: "c"},
		{At: 2*sim.Day + 2*sim.Hour, Type: MigrateCrossBB, VM: "a", Source: "n2", Target: "n9"},
	}
	for _, e := range seq {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	counts := l.CountByType()
	if counts[Create] != 2 || counts[MigrateIntraBB] != 1 || counts[MigrateCrossBB] != 1 {
		t.Errorf("counts = %v", counts)
	}
	churn := l.Churn(3)
	if churn[0].Creates != 2 || churn[0].Migrations != 1 {
		t.Errorf("day0 = %+v", churn[0])
	}
	if churn[1].Resizes != 1 || churn[1].Deletes != 1 {
		t.Errorf("day1 = %+v", churn[1])
	}
	if churn[2].Failures != 1 || churn[2].Migrations != 1 {
		t.Errorf("day2 = %+v", churn[2])
	}
}

func TestChurnIgnoresOutOfWindow(t *testing.T) {
	var l Log
	if err := l.Append(Event{At: 10 * sim.Day, Type: Create, VM: "late"}); err != nil {
		t.Fatal(err)
	}
	churn := l.Churn(3)
	for _, d := range churn {
		if d.Creates != 0 {
			t.Errorf("out-of-window event counted: %+v", d)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var l Log
	seq := []Event{
		{At: sim.Hour, Type: Create, VM: "vm-1", Flavor: "MK", Target: "n1"},
		{At: 2 * sim.Hour, Type: MigrateIntraBB, VM: "vm-1", Flavor: "MK", Source: "n1", Target: "n2"},
		{At: 3 * sim.Hour, Type: Delete, VM: "vm-1", Flavor: "MK", Source: "n2"},
	}
	for _, e := range seq {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("round trip lost events: %d", got.Len())
	}
	for i, e := range got.All() {
		if e != seq[i] {
			t.Errorf("event %d = %+v, want %+v", i, e, seq[i])
		}
	}
}

func TestCSVAnonymizes(t *testing.T) {
	var l Log
	if err := l.Append(Event{At: sim.Hour, Type: Create, VM: "secret-vm", Flavor: "MK", Target: "secret-node"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf, dataset.NewAnonymizer("s")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "secret-vm") || strings.Contains(out, "secret-node") {
		t.Errorf("identifiers leaked:\n%s", out)
	}
	if !strings.Contains(out, "MK") {
		t.Error("flavor should be preserved")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"bad,header,x,y,z,w\n",
		"ts_seconds,type,vm,flavor,source,target\nnotanumber,create,v,,,\n",
		"ts_seconds,type,vm,flavor,source,target\n1,unknown-type,v,,,\n",
		"ts_seconds,type,vm,flavor,source,target\n1,create,,,,\n",
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
