package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// parseNDJSON decodes every line, failing on the first malformed one.
func parseNDJSON(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	for i, line := range bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		out = append(out, obj)
	}
	return out
}

// TestSweepSinksProduceNDJSON runs an instrumented sweep over concurrent
// workers and validates everything that reached the shared sinks: every
// line parses, every line carries its cell identity, and every cell of the
// sweep shows up in both streams.
func TestSweepSinksProduceNDJSON(t *testing.T) {
	var mbuf, tbuf bytes.Buffer
	msink, tsink := obs.NewSink(&mbuf), obs.NewSink(&tbuf)
	opts := Options{
		Base:        testBase(t),
		Scenarios:   testScenarios(),
		Reps:        2,
		Workers:     3,
		MetricsSink: msink,
		TraceSink:   tsink,
	}
	sw, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if msink.Err() != nil || tsink.Err() != nil {
		t.Fatalf("sink errors: %v / %v", msink.Err(), tsink.Err())
	}

	type cell struct {
		Scenario string
		Rep      int
	}
	covered := func(lines []map[string]any) map[cell]int {
		got := map[cell]int{}
		for _, l := range lines {
			sc, ok := l["scenario"].(string)
			rep, ok2 := l["rep"].(float64)
			if !ok || !ok2 {
				t.Fatalf("line missing cell identity: %v", l)
			}
			got[cell{sc, int(rep)}]++
		}
		return got
	}
	metricCells := covered(parseNDJSON(t, mbuf.Bytes()))
	traceCells := covered(parseNDJSON(t, tbuf.Bytes()))
	for _, r := range sw.Results {
		c := cell{r.Scenario, r.Rep}
		if metricCells[c] == 0 {
			t.Errorf("cell %v has no metric samples", c)
		}
		if traceCells[c] == 0 {
			t.Errorf("cell %v has no trace events", c)
		}
	}
}

// TestSweepSinksAreRunNeutral asserts instrumented and bare sweeps produce
// identical results — the sweep-level restatement of probe neutrality.
func TestSweepSinksAreRunNeutral(t *testing.T) {
	bare := Options{Base: testBase(t), Scenarios: testScenarios(), Reps: 2, Workers: 2}
	plain, err := Run(context.Background(), bare)
	if err != nil {
		t.Fatal(err)
	}
	var mbuf, tbuf bytes.Buffer
	probed := bare
	probed.MetricsSink, probed.TraceSink = obs.NewSink(&mbuf), obs.NewSink(&tbuf)
	traced, err := Run(context.Background(), probed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Results {
		if plain.Results[i] != traced.Results[i] {
			t.Fatalf("cell %d diverged under instrumentation:\nbare:   %+v\nprobed: %+v",
				i, plain.Results[i], traced.Results[i])
		}
	}
}

// TestProgressTelemetryFields checks the live telemetry the sweep reports:
// per-cell wall time, throughput and ETA populated on Progress, and the
// Tracker's aggregate snapshot consistent with what it observed.
func TestProgressTelemetryFields(t *testing.T) {
	var progressed []Progress
	opts := Options{
		Base:      testBase(t),
		Scenarios: testScenarios(),
		Reps:      1,
		Workers:   1,
		Progress:  func(p Progress) { progressed = append(progressed, p) },
	}
	if _, err := Run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if len(progressed) != 3 {
		t.Fatalf("got %d progress calls, want 3", len(progressed))
	}
	for i, p := range progressed {
		if p.WallSeconds <= 0 {
			t.Errorf("progress %d: WallSeconds = %v, want > 0", i, p.WallSeconds)
		}
		if p.CellsPerSec <= 0 {
			t.Errorf("progress %d: CellsPerSec = %v, want > 0", i, p.CellsPerSec)
		}
	}
	last := progressed[len(progressed)-1]
	if last.ETASeconds != 0 {
		t.Errorf("final ETA = %v, want 0", last.ETASeconds)
	}

	tr := NewTracker(3)
	for _, p := range progressed {
		tr.Observe(p.WallSeconds)
	}
	snap := tr.Snapshot()
	if snap.Done != 3 || snap.Total != 3 {
		t.Errorf("snapshot %d/%d, want 3/3", snap.Done, snap.Total)
	}
	if snap.MeanCellSeconds <= 0 || snap.SysMB <= 0 {
		t.Errorf("snapshot mean %v / sys %v, want > 0", snap.MeanCellSeconds, snap.SysMB)
	}
	line := obs.Line(snap.Fields()...)
	var obj map[string]any
	if err := json.Unmarshal(line, &obj); err != nil {
		t.Fatalf("telemetry Line is not JSON: %v\n%s", err, line)
	}
	if obj["event"] != "sweep-telemetry" || obj["done"] != 3.0 {
		t.Errorf("telemetry line fields wrong: %v", obj)
	}
}

// TestGridSinksProduceNDJSON is the co-run variant: per-tenant series and
// the project-tagged trace events must reach the sinks for every cell.
func TestGridSinksProduceNDJSON(t *testing.T) {
	var mbuf, tbuf bytes.Buffer
	msink, tsink := obs.NewSink(&mbuf), obs.NewSink(&tbuf)
	opts := Options{
		Base:        testGridBase(t),
		Scenarios:   testGridScenarios(),
		Reps:        1,
		Workers:     2,
		MetricsSink: msink,
		TraceSink:   tsink,
	}
	sw, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if msink.Err() != nil || tsink.Err() != nil {
		t.Fatalf("sink errors: %v / %v", msink.Err(), tsink.Err())
	}
	mlines := parseNDJSON(t, mbuf.Bytes())
	perTenant := false
	for _, l := range mlines {
		if s, _ := l["series"].(string); len(s) > 3 && s[:3] == "p1-" {
			perTenant = true
			break
		}
	}
	if !perTenant {
		t.Error("no p1- prefixed per-tenant series in the grid metrics")
	}
	if len(parseNDJSON(t, tbuf.Bytes())) == 0 {
		t.Error("no grid trace events")
	}
	if len(sw.Results) == 0 {
		t.Fatal("no grid results")
	}
	for _, p := range sw.Results {
		if p.Scenario == "" {
			t.Error("unfilled grid result")
		}
	}
}
