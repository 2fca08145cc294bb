package experiment

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")

	// Missing file reads as empty.
	f, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != BenchSchema || len(f.Runs) != 0 {
		t.Fatalf("empty file: %+v", f)
	}

	run := BenchRun{
		Benchmark: "BenchmarkCampaignCI", Label: "a", Scale: 0.5,
		NsPerOp: 100, AllocsPerOp: 7, EventsExecuted: 42, PeakQueueDepth: 3,
	}
	if err := AppendBenchRun(path, run); err != nil {
		t.Fatal(err)
	}
	other := run
	other.Label = "b"
	if err := AppendBenchRun(path, other); err != nil {
		t.Fatal(err)
	}
	// Same (benchmark, label) replaces in place.
	run.NsPerOp = 50
	if err := AppendBenchRun(path, run); err != nil {
		t.Fatal(err)
	}

	f, err = ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(f.Runs))
	}
	if f.Runs[0].NsPerOp != 50 || f.Runs[0].Label != "a" {
		t.Fatalf("replace failed: %+v", f.Runs[0])
	}
	if f.Runs[1].Label != "b" {
		t.Fatalf("append failed: %+v", f.Runs[1])
	}
}

func TestLatestRunPicksFreshestDate(t *testing.T) {
	// AppendBenchRun replaces a re-recorded label in place, so the most
	// recent measurement can sit BEFORE a stale row: LatestRun must go by
	// date, not file position.
	f := &BenchFile{Runs: []BenchRun{
		{Benchmark: "B", Label: "pr2", Date: "2026-07-30", AllocsPerOp: 111}, // re-recorded later
		{Benchmark: "B", Label: "pr3", Date: "2026-07-29", AllocsPerOp: 222},
	}}
	r, ok := f.LatestRun("B")
	if !ok || r.Label != "pr2" {
		t.Fatalf("LatestRun = %+v, want the re-recorded pr2 row", r)
	}
	// Equal dates: the later row wins.
	f.Runs[0].Date = "2026-07-29"
	if r, _ := f.LatestRun("B"); r.Label != "pr3" {
		t.Fatalf("tie should go to the later row, got %+v", r)
	}
	// Undated rows lose to dated ones.
	f.Runs = append(f.Runs, BenchRun{Benchmark: "B", Label: "hand-written"})
	if r, _ := f.LatestRun("B"); r.Label != "pr3" {
		t.Fatalf("undated row beat a dated one: %+v", r)
	}
	if _, ok := f.LatestRun("missing"); ok {
		t.Fatal("missing benchmark reported found")
	}
}

func TestAllocGate(t *testing.T) {
	base := &BenchFile{Runs: []BenchRun{
		{Benchmark: "BenchmarkCampaignCI", Label: "old", AllocsPerOp: 5000},
		{Benchmark: "BenchmarkCampaignCI", Label: "baseline", AllocsPerOp: 1000},
		{Benchmark: "BenchmarkOther", Label: "x", AllocsPerOp: 1},
	}}
	cur := func(allocs int64) *BenchFile {
		return &BenchFile{Runs: []BenchRun{
			{Benchmark: "BenchmarkCampaignCI", Label: "pr", AllocsPerOp: allocs},
		}}
	}
	// The gate compares against the LATEST baseline row (1000, not 5000).
	if err := AllocGate(base, cur(1100), "BenchmarkCampaignCI", 0.10); err != nil {
		t.Fatalf("within margin rejected: %v", err)
	}
	if err := AllocGate(base, cur(1101), "BenchmarkCampaignCI", 0.10); err == nil {
		t.Fatal("regression above margin accepted")
	}
	if err := AllocGate(base, cur(900), "BenchmarkCampaignCI", 0.10); err != nil {
		t.Fatalf("improvement rejected: %v", err)
	}
	if err := AllocGate(base, cur(1), "BenchmarkMissing", 0.10); err == nil {
		t.Fatal("missing baseline benchmark accepted")
	}
	if err := AllocGate(cur(1), base, "BenchmarkOther", 0.10); err == nil {
		t.Fatal("missing current benchmark accepted")
	}
	// The margin must be finite and ≥ 0. NaN and +Inf used to turn the
	// limit into an implementation-dependent int64 (MinInt64 on amd64), so
	// identical rows "regressed"; a negative margin failed them too. A
	// huge finite margin passes them.
	for _, m := range []float64{math.NaN(), math.Inf(1), -0.5} {
		if err := AllocGate(base, cur(1000), "BenchmarkCampaignCI", m); err == nil || !strings.Contains(err.Error(), "margin") {
			t.Errorf("margin %v: err = %v, want an error naming the margin", m, err)
		}
	}
	if err := AllocGate(base, cur(1000), "BenchmarkCampaignCI", 1e300); err != nil {
		t.Errorf("margin 1e300 failed identical rows: %v", err)
	}

	// Bytes/op are gated at the same margin, against the same latest row,
	// whatever the allocation count does.
	base.Runs[0].BytesPerOp = 100_000
	base.Runs[1].BytesPerOp = 10_000
	for _, c := range []struct {
		allocs, bytes int64
		ok            bool
	}{
		{1000, 11_000, true},   // at the margin
		{1000, 11_001, false},  // one byte past it
		{900, 11_001, false},   // fewer allocations do not excuse bigger ones
		{1000, 6_000, true},    // improvement
		{1101, 10_000, false},  // the count alone still trips the gate
		{1000, 100_000, false}, // not measured against the older row
	} {
		f := &BenchFile{Runs: []BenchRun{
			{Benchmark: "BenchmarkCampaignCI", Label: "pr", AllocsPerOp: c.allocs, BytesPerOp: c.bytes},
		}}
		err := AllocGate(base, f, "BenchmarkCampaignCI", 0.10)
		if (err == nil) != c.ok {
			t.Errorf("allocs=%d bytes=%d: err=%v, want ok=%v", c.allocs, c.bytes, err, c.ok)
		}
		if err != nil && c.allocs <= 1100 && !strings.Contains(err.Error(), "bytes/op") {
			t.Errorf("allocs=%d bytes=%d: error %q does not name bytes/op", c.allocs, c.bytes, err)
		}
	}
}

func TestReadBenchFileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchFile(path); err == nil {
		t.Fatal("expected parse error")
	}
}
