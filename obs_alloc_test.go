// Zero-cost gate for the observability plane: a nil-probe campaign must
// allocate exactly what the checked-in BENCH_campaign.json baseline row
// recorded before the plane existed. Allocations are deterministic for a
// deterministic simulation, so any growth here is the plane leaking into
// the disabled path.
package repro_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/experiment"
	"repro/internal/project"
)

func TestNilProbeAllocNeutrality(t *testing.T) {
	if testing.Short() {
		t.Skip("full CI-scale campaign")
	}
	f, err := experiment.ReadBenchFile("BENCH_campaign.json")
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	base, ok := f.LatestRun("BenchmarkCampaignCI")
	if !ok {
		t.Skip("no BenchmarkCampaignCI baseline row recorded")
	}

	cfg := system().CampaignConfig(ciBenchScale, 0) // the benchmark's exact config, Probe nil
	// No GC cycle may start inside a measured run: background GC work
	// allocates, and a cycle landing in the window read as 1-2 extra
	// allocations. Each run starts from an explicit runtime.GC instead.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func() int64 {
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		rep := project.New(cfg).Run()
		runtime.ReadMemStats(&ms1)
		if !rep.Completed {
			t.Fatal("campaign did not complete")
		}
		return int64(ms1.Mallocs - ms0.Mallocs)
	}
	// Minimum of three runs: the campaign's own allocations are
	// deterministic, so the floor is the true count with any background
	// runtime allocations (GC workers, timers) filtered out.
	best := measure()
	for i := 0; i < 2; i++ {
		if m := measure(); m < best {
			best = m
		}
	}
	if best > base.AllocsPerOp {
		t.Errorf("nil-probe campaign allocates %d, baseline %q recorded %d: the disabled plane added %d allocations",
			best, base.Label, base.AllocsPerOp, best-base.AllocsPerOp)
	}
}
