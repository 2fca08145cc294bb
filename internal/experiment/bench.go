package experiment

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// BenchSchema identifies the BENCH_campaign.json layout.
const BenchSchema = "bench-campaign/v1"

// BenchRun is one measured campaign-benchmark run: the performance
// trajectory every PR is judged against. Wall-clock and allocation figures
// come from the Go benchmark harness; events and queue depth come from the
// simulation kernel itself, so a run is comparable across machines (same
// events executed) and within a machine (ns/op).
type BenchRun struct {
	Benchmark       string  `json:"benchmark"`              // e.g. "BenchmarkCampaignFullScale"
	Label           string  `json:"label"`                  // e.g. "post-refactor (PR 2)"
	Date            string  `json:"date,omitempty"`         // YYYY-MM-DD the run was recorded
	CPU             string  `json:"cpu,omitempty"`          // informational; ns/op is machine-bound
	Scale           float64 `json:"scale"`                  // WorkScale of the run
	HostScale       float64 `json:"host_scale,omitempty"`   // only when ≠ Scale (grid-growth runs)
	Shards          int     `json:"shards,omitempty"`       // host-kernel shards of older rows; set by nothing
	HostsJoined     int     `json:"hosts_joined,omitempty"` // volunteers that ever joined (churn included)
	NsPerOp         int64   `json:"ns_per_op"`              // wall-clock per campaign
	BytesPerOp      int64   `json:"bytes_per_op"`           // heap allocated per campaign
	AllocsPerOp     int64   `json:"allocs_per_op"`          // heap allocations per campaign
	EventsExecuted  uint64  `json:"events_executed"`        // kernel events per campaign
	PeakQueueDepth  int     `json:"peak_queue_depth"`       // event-queue high-water mark
	SimWeeks        float64 `json:"sim_weeks"`              // simulated campaign duration
	ResultsReceived int64   `json:"results_received"`       // returned results per campaign
	LiveBytes       int64   `json:"live_bytes,omitempty"`   // heap a pooled runner retains between runs
	Note            string  `json:"note,omitempty"`         // why the row moved against its predecessor
}

// BenchFile is the on-disk BENCH_campaign.json: an append-mostly log of
// benchmark runs, one entry per (benchmark, label).
type BenchFile struct {
	Schema string     `json:"schema"`
	Runs   []BenchRun `json:"runs"`
}

// ReadBenchFile loads path; a missing file yields an empty, valid file.
func ReadBenchFile(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &BenchFile{Schema: BenchSchema}, nil
	}
	if err != nil {
		return nil, err
	}
	var f BenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("experiment: parsing %s: %w", path, err)
	}
	if f.Schema == "" {
		f.Schema = BenchSchema
	}
	return &f, nil
}

// WriteBenchFile writes f to path as indented JSON.
func WriteBenchFile(path string, f *BenchFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// AppendBenchRun records run in the bench file at path, replacing any
// existing entry with the same benchmark and label so a re-run updates its
// own row instead of duplicating it.
func AppendBenchRun(path string, run BenchRun) error {
	f, err := ReadBenchFile(path)
	if err != nil {
		return err
	}
	replaced := false
	for i := range f.Runs {
		if f.Runs[i].Benchmark == run.Benchmark && f.Runs[i].Label == run.Label {
			f.Runs[i] = run
			replaced = true
			break
		}
	}
	if !replaced {
		f.Runs = append(f.Runs, run)
	}
	return WriteBenchFile(path, f)
}

// LatestRun returns the most recently recorded run of the named
// benchmark: the row with the greatest Date, later rows winning ties.
// Position alone is not enough — AppendBenchRun replaces an existing
// (benchmark, label) row in place, so a re-recorded older label can sit
// before a stale newer one in the file.
func (f *BenchFile) LatestRun(bench string) (BenchRun, bool) {
	best := -1
	for i, r := range f.Runs {
		if r.Benchmark != bench {
			continue
		}
		// Dates are YYYY-MM-DD, so lexicographic order is date order;
		// an absent Date ("") loses to any dated row.
		if best == -1 || r.Date >= f.Runs[best].Date {
			best = i
		}
	}
	if best == -1 {
		return BenchRun{}, false
	}
	return f.Runs[best], true
}

// AllocGate is the CI allocation-regression gate: it compares the latest
// current run of bench against the latest baseline run and returns an
// error when allocs/op or bytes/op grew by more than maxGrowth (0.10 =
// +10 %), or live bytes did when both rows carry them. ns/op is
// deliberately not gated — CI machines vary — but allocation counts and
// allocated bytes are deterministic for a deterministic simulation, so a
// breach means the change really did add per-op allocations or make them
// larger, or made a pooled runner retain more. maxGrowth must be finite
// and ≥ 0.
func AllocGate(baseline, current *BenchFile, bench string, maxGrowth float64) error {
	if !(maxGrowth >= 0) || math.IsInf(maxGrowth, 1) {
		return fmt.Errorf("experiment: allocation growth margin %v must be finite and ≥ 0", maxGrowth)
	}
	base, ok := baseline.LatestRun(bench)
	if !ok {
		return fmt.Errorf("experiment: baseline has no %s run", bench)
	}
	cur, ok := current.LatestRun(bench)
	if !ok {
		return fmt.Errorf("experiment: current file has no %s run", bench)
	}
	type metric struct {
		unit      string
		base, cur int64
	}
	gated := []metric{
		{"allocs/op", base.AllocsPerOp, cur.AllocsPerOp},
		{"bytes/op", base.BytesPerOp, cur.BytesPerOp},
	}
	if base.LiveBytes > 0 && cur.LiveBytes > 0 {
		gated = append(gated, metric{"live bytes", base.LiveBytes, cur.LiveBytes})
	}
	for _, m := range gated {
		// In float64: converting a huge limit back to int64 is
		// implementation-dependent.
		limit := float64(m.base) * (1 + maxGrowth)
		if float64(m.cur) > limit {
			return fmt.Errorf("experiment: %s %s regressed: %d (%q) > %d baseline (%q) +%.0f%% = %.0f",
				bench, m.unit, m.cur, cur.Label, m.base, base.Label, maxGrowth*100, limit)
		}
	}
	return nil
}
