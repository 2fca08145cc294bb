package volunteer

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wcg"
	"repro/internal/workunit"
)

// drive grows, works and shrinks a fleet on the given stack, returning the
// fingerprint a reused stack must reproduce exactly.
func drive(srv *wcg.Server, k *ShardKernel) (completed int64, cpu float64, joined int, mean float64) {
	for i := 0; i < 5000; i++ {
		srv.AddWorkunit(workunit.Workunit{ID: int64(i), ISepLo: 1, ISepHi: 10, RefSeconds: 3600}, 0)
	}
	k.SetTarget(40)
	k.RunUntil(2 * sim.Week)
	k.SetTarget(10)
	k.RunUntil(3 * sim.Week)
	k.SetTarget(60)
	k.RunUntil(5 * sim.Week)
	return srv.Stats.Completed, srv.Stats.CPUSeconds, k.TotalJoined(), k.MeanSpeedDown()
}

func testStack(seed uint64) (*sim.Engine, *wcg.Server, *ShardKernel) {
	engine := sim.NewEngine()
	srv := wcg.NewServer(engine, wcg.Config{InitialQuorum: 1, SteadyQuorum: 1, Deadline: 12 * sim.Day})
	return engine, srv, newKernel(engine, srv, DefaultHostConfig(), seed)
}

func resetStack(engine *sim.Engine, srv *wcg.Server, k *ShardKernel, seed uint64) {
	engine.Reset()
	srv.Reset(wcg.Config{InitialQuorum: 1, SteadyQuorum: 1, Deadline: 12 * sim.Day})
	k.Reset(engine, srv, DefaultHostConfig(), rng.New(seed), 1, testWindow)
}

func TestPopulationResetMatchesFresh(t *testing.T) {
	_, fs, fk := testStack(123)
	wantC, wantCPU, wantJ, wantM := drive(fs, fk)

	// Dirty a stack with a different seed, reset every layer, rerun with
	// the fresh stack's seed: the outcome must be bit-for-bit identical.
	engine, srv, k := testStack(999)
	drive(srv, k)
	resetStack(engine, srv, k, 123)
	if k.Active() != 0 || k.TotalJoined() != 0 || k.MeanSpeedDown() != 0 {
		t.Fatalf("reset kernel not empty: active=%d joined=%d", k.Active(), k.TotalJoined())
	}
	gotC, gotCPU, gotJ, gotM := drive(srv, k)
	if gotC != wantC || gotCPU != wantCPU || gotJ != wantJ || gotM != wantM {
		t.Fatalf("reused stack diverged: completed %d/%d cpu %v/%v joined %d/%d mean %v/%v",
			gotC, wantC, gotCPU, wantCPU, gotJ, wantJ, gotM, wantM)
	}
}

// TestPopulationResetReusesHostStructs: a pooled Reset keeps every host
// column's and calendar's storage, so re-spawning the same fleet writes
// into the previous run's arrays and recycled chunks — and every host comes
// back with zeroed run state.
func TestPopulationResetReusesHostStructs(t *testing.T) {
	engine, srv, k := testStack(7)
	for i := 0; i < 100000; i++ {
		srv.AddWorkunit(workunit.Workunit{ID: int64(i), ISepLo: 1, ISepHi: 10, RefSeconds: 3600}, 0)
	}
	k.SetTarget(50)
	k.RunUntil(2 * sim.Week)
	speed, done, chunks := &k.speedDown[0], &k.done[0], calendarChunks(k)

	resetStack(engine, srv, k, 8)
	if got := calendarChunks(k); got < chunks {
		t.Fatalf("reset recycled %d calendar chunks, want all %d kept", got, chunks)
	}
	for i := 0; i < 100000; i++ {
		srv.AddWorkunit(workunit.Workunit{ID: int64(i), ISepLo: 1, ISepHi: 10, RefSeconds: 3600}, 0)
	}
	k.SetTarget(50)
	if &k.speedDown[0] != speed || &k.done[0] != done {
		t.Fatal("reset dropped the host columns' backing arrays")
	}
	for i := 0; i < 50; i++ {
		if k.done[i] != 0 || k.cpuSpent[i] != 0 || k.flags[i]&(hfStopped|hfTurned) != 0 {
			t.Fatalf("host %d kept state across Reset: done=%d cpu=%v flags=%b", i, k.done[i], k.cpuSpent[i], k.flags[i])
		}
	}
	// The recycled fleet must still work.
	k.RunUntil(2 * sim.Week)
	if srv.Stats.Completed == 0 {
		t.Fatal("recycled hosts completed nothing")
	}
}

// calendarChunks counts every calendar chunk the kernel owns.
func calendarChunks(k *ShardKernel) int {
	n := 0
	for sh := range k.cals {
		c := &k.cals[sh]
		for ch := c.free; ch != nil; ch = ch.next {
			n++
		}
		for _, w := range c.wins {
			for ch := w.head; ch != nil; ch = ch.next {
				n++
			}
		}
	}
	return n
}

// TestPopulationSpawnSeedMatchesSplit: the kernel seeds host i from the
// i-th draw of the population stream — the stream r.Split() hands out —
// so a host sampled from that split stream has the kernel host's
// speed-down.
func TestPopulationSpawnSeedMatchesSplit(t *testing.T) {
	_, _, k := testStack(31)
	k.SetTarget(20)

	cfg := DefaultHostConfig()
	sigma := cfg.SpeedDownSigma
	mu := math.Log(cfg.MeanSpeedDown) + sigma*sigma/2
	split := rng.New(31)
	for i := 0; i < 20; i++ {
		want := max(split.Split().LogNormal(mu, sigma), 1) // joined at t=0: no trend
		if k.speedDown[i] != want {
			t.Fatalf("host %d speed-down %v, want %v from the split stream", i, k.speedDown[i], want)
		}
	}
}
