package project

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// TestGridTraceShape pins what a probed co-run leaves behind, now that it
// runs on the campaign's own tick, probe and drain code: the report bytes
// stay on the grid golden (the probe is run-neutral on co-runs too), and
// the trace keeps its co-run shape — a run-start with the project count,
// no §5.1 phase events, a run-end without the single-project completed-wus
// field, one share-window-close, and each tenant-drain ahead of the
// snapshots its tenant captures at completion for marks not yet reached.
func TestGridTraceShape(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	cfg := gridConfig(t, 777, nil)
	cfg.Probe = recordingProbe(sink)
	if got := gridHash(t, NewGrid(cfg).Run()); got != goldenGridEqual {
		t.Errorf("probed co-run report hash = %s, want golden %s", got, goldenGridEqual)
	}
	if sink.Err() != nil {
		t.Fatal(sink.Err())
	}

	var events []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	count := map[string]int{}
	drainAt := map[string]int{} // tenant -> index of its tenant-drain
	for i, ev := range events {
		name := ev["event"].(string)
		count[name]++
		switch name {
		case "run-start":
			if ev["projects"] != 2.0 {
				t.Errorf("run-start projects = %v, want 2", ev["projects"])
			}
		case "run-end":
			if _, ok := ev["completed-wus"]; ok {
				t.Error("co-run run-end carries the single-project completed-wus field")
			}
		case "tenant-drain":
			drainAt[ev["project"].(string)] = i
		}
	}
	if count["phase"] != 0 || count["share-window-close"] != 1 || count["tenant-drain"] != 2 || count["run-start"] != 1 {
		t.Errorf("trace event counts %v: want no phase, one share-window-close and run-start, two tenant-drains", count)
	}
	// Before its drain a tenant captures only marks it has reached; the
	// marks it completes ahead of follow the drain.
	late := 0
	for i, ev := range events {
		if ev["event"] != "snapshot" {
			continue
		}
		d, ok := drainAt[ev["project"].(string)]
		if !ok {
			continue
		}
		mark, drainWeek := ev["snap-week"].(float64), events[d]["at-week"].(float64)
		if (i > d) != (mark > drainWeek) {
			t.Errorf("%s snapshot of mark %v at trace line %d, tenant-drain at week %v on line %d",
				ev["project"], mark, i, drainWeek, d)
		}
		if i > d {
			late++
		}
	}
	if late == 0 {
		t.Fatal("no tenant finished ahead of a snapshot mark; the ordering check is vacuous")
	}
}
