package docking

import (
	"bytes"
	"strings"
	"testing"
)

func TestTaskRunEqualsDockRange(t *testing.T) {
	rec, lig := smallPair(t)
	task := NewTask(rec, lig, 2, 5, 2, fastParams)
	got := task.Run()
	want := DockRange(rec, lig, 2, 5, 2, fastParams, nil)
	if len(got) != len(want) {
		t.Fatalf("len %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d differs", i)
		}
	}
	if !task.Done() || task.Progress() != 1 {
		t.Fatalf("task not done: progress=%v", task.Progress())
	}
}

func TestTaskStepProgress(t *testing.T) {
	rec, lig := smallPair(t)
	task := NewTask(rec, lig, 1, 4, 1, fastParams)
	if task.Progress() != 0 {
		t.Fatalf("initial progress %v", task.Progress())
	}
	task.Step()
	if task.Progress() != 0.25 {
		t.Fatalf("progress after one step: %v", task.Progress())
	}
	n := task.RunN(10)
	if n != 3 {
		t.Fatalf("RunN did %d, want 3 remaining", n)
	}
	if task.Step() {
		t.Fatal("Step on done task should return false")
	}
}

func TestCheckpointResume(t *testing.T) {
	rec, lig := smallPair(t)
	// Reference: run straight through.
	ref := NewTask(rec, lig, 1, 6, 2, fastParams).Run()

	// Interrupted: run 2 positions, checkpoint, marshal, resume, finish.
	task := NewTask(rec, lig, 1, 6, 2, fastParams)
	task.RunN(2)
	cp := task.Checkpoint()
	data, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(cp2, rec, lig, fastParams)
	if err != nil {
		t.Fatal(err)
	}
	got := resumed.Run()
	if len(got) != len(ref) {
		t.Fatalf("resumed run produced %d results, want %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("resumed result %d differs from straight run", i)
		}
	}
}

func TestCheckpointIsolation(t *testing.T) {
	// Mutating the task after Checkpoint must not alter the snapshot.
	rec, lig := smallPair(t)
	task := NewTask(rec, lig, 1, 3, 1, fastParams)
	task.RunN(1)
	cp := task.Checkpoint()
	nBefore := len(cp.Results)
	task.RunN(2)
	if len(cp.Results) != nBefore {
		t.Fatal("checkpoint aliases live results")
	}
}

func TestResumeValidation(t *testing.T) {
	rec, lig := smallPair(t)
	task := NewTask(rec, lig, 1, 3, 1, fastParams)
	cp := task.Checkpoint()

	if _, err := Resume(cp, lig, rec, fastParams); err == nil {
		t.Fatal("expected error for swapped proteins")
	}
	bad := cp
	bad.NextISep = 99
	if _, err := Resume(bad, rec, lig, fastParams); err == nil {
		t.Fatal("expected error for corrupt frontier")
	}
}

func TestUnmarshalCheckpointError(t *testing.T) {
	if _, err := UnmarshalCheckpoint([]byte("{nope")); err == nil {
		t.Fatal("expected error for invalid JSON")
	}
}

func TestNewTaskPanics(t *testing.T) {
	rec, lig := smallPair(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad range")
		}
	}()
	NewTask(rec, lig, 5, 2, 1, fastParams)
}

func TestResultFileRoundTrip(t *testing.T) {
	rec, lig := smallPair(t)
	res := DockRange(rec, lig, 1, 3, 2, fastParams, nil)
	var buf bytes.Buffer
	if err := WriteResults(&buf, res); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(res) {
		t.Fatalf("parsed %d, want %d", len(parsed), len(res))
	}
	for i := range parsed {
		if parsed[i].ISep != res[i].ISep || parsed[i].IRot != res[i].IRot {
			t.Fatalf("line %d indices differ", i)
		}
		// Energies round-trip at the printed precision.
		if d := parsed[i].Energy.LJ - res[i].Energy.LJ; d > 1e-6 || d < -1e-6 {
			t.Fatalf("line %d LJ differs by %v", i, d)
		}
	}
}

func TestParseResultsErrors(t *testing.T) {
	cases := []string{
		"1 2 3\n",                       // wrong field count
		"x 1 0 0 0 0 0 0 0 0\n",         // bad isep
		"1 y 0 0 0 0 0 0 0 0\n",         // bad irot
		"1 1 z 0 0 0 0 0 0 0\n",         // bad float
		"1 1 0 0 0 0 0 0 0 not-a-num\n", // bad energy
	}
	for i, c := range cases {
		if _, err := ParseResults(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestParseResultsSkipsBlank(t *testing.T) {
	in := "1 1 0 0 0 0 0 0 -1.5 0.25\n\n  \n2 1 0 0 0 0 0 0 -2 0.5\n"
	res, err := ParseResults(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("parsed %d lines, want 2", len(res))
	}
}

func TestValidRangeChecks(t *testing.T) {
	v := DefaultValidRange
	good := Result{ISep: 1, IRot: 1, Energy: Energy{LJ: -3, Elec: 1}}
	if err := v.CheckLine(good); err != nil {
		t.Fatalf("good line rejected: %v", err)
	}
	bads := []Result{
		{ISep: 0, IRot: 1},
		{ISep: 1, IRot: 0},
		{ISep: 1, IRot: 1, Pose: Pose{Pos: Vec3{X: 1e9}}},
		{ISep: 1, IRot: 1, Energy: Energy{LJ: 1e12}},
		{ISep: 1, IRot: 1, Energy: Energy{Elec: nanF()}},
	}
	for i, b := range bads {
		if err := v.CheckLine(b); err == nil {
			t.Errorf("bad line %d accepted", i)
		}
	}
}

func nanF() float64 { z := 0.0; return z / z }

func TestCheckResultsLineCount(t *testing.T) {
	v := DefaultValidRange
	res := []Result{{ISep: 1, IRot: 1}}
	if err := v.CheckResults(res, 2); err == nil {
		t.Fatal("expected line-count failure")
	}
	if err := v.CheckResults(res, 1); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
}

func BenchmarkResultFileWrite(b *testing.B) {
	res := make([]Result, 1000)
	for i := range res {
		res[i] = Result{ISep: i/21 + 1, IRot: i%21 + 1, Energy: Energy{LJ: -1.5, Elec: 0.3}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		_ = WriteResults(&buf, res)
	}
}
