package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/project"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, m, q3  float64
		wantSpread float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1},
		{[]float64{1, 2, 3}, 1, 2, 3, 1},
		{[]float64{3, 1, 2, 10}, 1.25, 2.5, 8.25, 2.8},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1},
		{[]float64{5, 1.5, 2.25, 9, 4, 7.5, 3}, 2.25, 4, 7.5, 1.3125},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.m {
			t.Errorf("%v: quartiles %v %v median %v, want %v %v %v", c.xs, q1, q3, median(c.xs), c.q1, c.q3, c.m)
		}
		if got := spread(c.xs); got != c.wantSpread {
			t.Errorf("%v: spread %v, want %v", c.xs, got, c.wantSpread)
		}
	}
	if median(nil) != 0 {
		t.Errorf("median of no samples = %v, want 0", median(nil))
	}
}

func TestPercentileRuleNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := tailPercentile(xs, 0.9); err == nil {
		t.Error("p90 of 99 samples (9 beyond) was reported")
	}
	xs = append(xs, 100)
	got, err := tailPercentile(xs, 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples (10 beyond) refused: %v", err)
	}
	if math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1", got)
	}
	if _, err := tailPercentile(xs, 0.99); err == nil {
		t.Error("p99 of 100 samples (1 beyond) was reported")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := &tracer{op: 1}
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	tr.spans = []span{
		{ID: 1, Op: 1, Name: "experiment.Run", Start: at(0), End: at(100)},
		// Two overlapping cells on parallel workers cover [10, 70).
		{ID: 2, Parent: 1, Op: 1, Name: "project.cell", Start: at(10), End: at(50)},
		{ID: 3, Parent: 1, Op: 1, Name: "project.cell", Start: at(30), End: at(70)},
		{ID: 4, Parent: 3, Op: 1, Name: "snapshot.Snapshot", Start: at(60), End: at(65)},
		{ID: 5, Op: 2, Name: "project.Run", Start: at(0), End: at(999)},
	}
	self := tr.selfTimes(1)
	for layer, want := range map[string]time.Duration{
		"experiment": at(40),
		"project":    at(40 + 35),
		"snapshot":   at(5),
	} {
		if self[layer] != want {
			t.Errorf("%s self time = %v, want %v", layer, self[layer], want)
		}
	}
}

// tinyReport runs the replay configuration at the smoke-test size.
func tinyReport(t *testing.T) *project.Report {
	t.Helper()
	cfg := core.NewHCMD().CampaignConfig(tinySizes.replayScale, 0)
	rep := project.NewRunner().Run(cfg)
	if err := checkReport(rep); err != nil {
		t.Fatalf("unperturbed report fails its checks: %v", err)
	}
	return rep
}

func TestDigestCatchesPerturbedReport(t *testing.T) {
	rep := tinyReport(t)
	pinned, err := reportDigest(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := digestCheck(pinned)(pinned); err != nil {
		t.Fatalf("the pinned digest itself is refused: %v", err)
	}

	// One more credit point: every conservation identity still holds, so
	// only the digest can tell.
	perturbed := *rep
	perturbed.PointsTotal++
	if err := checkReport(&perturbed); err != nil {
		t.Fatalf("perturbation broke an identity, so it does not test the digest: %v", err)
	}
	d, err := reportDigest(&perturbed)
	if err != nil {
		t.Fatal(err)
	}
	if err := digestCheck(pinned)(d); err == nil {
		t.Error("perturbed report matched the pinned digest")
	}
	// Without a pinned digest, ops of one run must still agree.
	check := digestCheck("")
	if err := check(pinned); err != nil {
		t.Fatal(err)
	}
	if err := check(d); err == nil {
		t.Error("two ops with different digests were both accepted")
	}
}

func TestReportIdentitiesCatchLostResult(t *testing.T) {
	rep := *tinyReport(t)
	rep.ServerStats.Received++
	if err := checkReport(&rep); err == nil {
		t.Error("a received result that is neither valid nor invalid passed")
	}
	rep = *tinyReport(t)
	rep.ServerStats.Completed--
	if err := checkReport(&rep); err == nil {
		t.Error("a completed run short of one validated workunit passed")
	}
}

// TestSmokeAllWorkloads runs every workload untraced and traced at the
// tiny size: every op must pass its checks and the traced pass must report
// every per-layer metric. The workloads run in parallel on one probe, so
// the probe's rescaling factors mean nothing here.
func TestSmokeAllWorkloads(t *testing.T) {
	probe, err := startProbe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { probe.close() })
	for _, name := range workloadNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := newWorkload(name, tinySizes, 3)
			if err != nil {
				t.Fatal(err)
			}
			res := runUntraced(w, probe, 1e-9, digestCheck(""))
			if !res.Correct || res.Attempted != 1 {
				t.Fatalf("untraced run: %+v", res)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.name]; v.Value <= 0 || v.Unit != d.unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.name, v, d.unit)
				}
			}

			p := runTraced(w, probe, digestCheck(""))
			if p.failed != 0 {
				t.Fatalf("traced pass: %d of %d ops failed", p.failed, p.attempted)
			}
			out := output(perLayer, p.m, p.attempted, p.failed)
			if len(out.Metrics) != len(perLayer) || len(p.m) != len(perLayer) {
				t.Errorf("traced pass reports %d metrics and computes %d, want %d", len(out.Metrics), len(p.m), len(perLayer))
			}
			for _, must := range []string{"core.build_ms", "project.self_s", "runtime.alloc_mb_per_op"} {
				if out.Metrics[must].Value <= 0 {
					t.Errorf("%s = %v, want > 0", must, out.Metrics[must].Value)
				}
			}
			if len(p.tr.spans) == 0 {
				t.Error("traced pass recorded no spans")
			}
		})
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if d := want[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
