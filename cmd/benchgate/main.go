// Command benchgate is the CI allocation-regression gate: it compares a
// freshly measured benchmark file against the checked-in
// BENCH_campaign.json baseline and exits non-zero when allocs/op or
// bytes/op grew beyond the allowed margin for any gated benchmark, or the
// live bytes a pooled runner retains did when both rows carry them (the
// BenchmarkSweepCell row does). Allocation counts and allocated bytes are
// deterministic for a deterministic simulation, so the gate is
// machine-independent — unlike ns/op, which is deliberately not gated. One
// margin, -max-alloc-growth, applies to all three.
//
// Seven benchmarks are gated by default, the same seven CI gates:
// BenchmarkCampaignCI (the fresh one-shot campaign), BenchmarkSweepCell
// (the pooled steady-state replication, which is where arena-reuse
// regressions hide), BenchmarkSharedGrid2Proj (the two-project co-run on
// the work-fetch mux), BenchmarkCampaignGrid10x (the grid-growth scale
// milestone, where per-host overheads that vanish at CI scale show up
// multiplied by the fleet), BenchmarkCampaignGrid100xCI (the 100:1
// over-provisioned mega-grid, where the window barriers and calendar
// chunks live), BenchmarkSweepForked (the prefix-shared sweep, where
// snapshot materialize/adopt copy regressions hide), and
// BenchmarkSweepForkedParallel (the fan-out sweep, where the same copies
// recur on every adopting runner).
//
// Usage:
//
//	benchgate -baseline BENCH_campaign.json -current BENCH_ci.json \
//	          [-bench BenchmarkCampaignCI,BenchmarkSweepCell,BenchmarkSharedGrid2Proj,BenchmarkCampaignGrid10x,BenchmarkCampaignGrid100xCI,BenchmarkSweepForked,BenchmarkSweepForkedParallel] \
//	          [-max-alloc-growth 0.10]
//
// The observability plane's wall-time gate is not here: ns/op rows from two
// benchmark runs are too noisy to compare, so BenchmarkCampaignCIOverhead
// interleaves bare and instrumented campaigns in one process and gates the
// median per-pair ratio itself.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiment"
)

func main() {
	baseline := flag.String("baseline", "BENCH_campaign.json", "checked-in benchmark trajectory (the baseline)")
	current := flag.String("current", "", "freshly measured benchmark file to gate")
	bench := flag.String("bench", "BenchmarkCampaignCI,BenchmarkSweepCell,BenchmarkSharedGrid2Proj,BenchmarkCampaignGrid10x,BenchmarkCampaignGrid100xCI,BenchmarkSweepForked,BenchmarkSweepForkedParallel", "comma-separated benchmark names to compare")
	maxGrowth := flag.Float64("max-alloc-growth", 0.10, "allowed allocs/op and bytes/op growth over the baseline (0.10 = +10%)")
	flag.Parse()

	if err := run(*baseline, *current, *bench, *maxGrowth); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
}

func run(baselinePath, currentPath, benchSpec string, maxGrowth float64) error {
	if currentPath == "" {
		return fmt.Errorf("-current is required")
	}
	base, err := experiment.ReadBenchFile(baselinePath)
	if err != nil {
		return err
	}
	cur, err := experiment.ReadBenchFile(currentPath)
	if err != nil {
		return err
	}
	gated := 0
	for _, bench := range strings.Split(benchSpec, ",") {
		bench = strings.TrimSpace(bench)
		if bench == "" {
			continue
		}
		if err := experiment.AllocGate(base, cur, bench, maxGrowth); err != nil {
			return err
		}
		b, _ := base.LatestRun(bench)
		c, _ := cur.LatestRun(bench)
		fmt.Printf("benchgate: %s ok — %d allocs/op, %d B/op (%q) vs %d, %d B/op baseline (%q), limit +%.0f%%\n",
			bench, c.AllocsPerOp, c.BytesPerOp, c.Label, b.AllocsPerOp, b.BytesPerOp, b.Label, maxGrowth*100)
		gated++
	}
	if gated == 0 {
		return fmt.Errorf("-bench selected no benchmarks")
	}
	return nil
}
