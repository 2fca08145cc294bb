package project

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/volunteer"
	"repro/internal/wcg"
)

// Golden report hashes of the single-project determinism configuration,
// recorded BEFORE the shared-grid refactor (PR 5) on the commit where
// Campaign still bound Population straight to one *wcg.Server. The
// multi-project work-fetch layer must leave the single-project path
// byte-identical — fresh and pooled — so these constants are the
// regression anchor: if either hash moves, the refactor changed the
// simulation, not just its structure.
//
// The hashes cover the JSON rendering of renderReport (Config zeroed) for
// determinismConfig seeds 777 and 778. They are tied to the generator's
// float stream (go1.24 linux/amd64 at record time). On amd64 math.Exp
// takes an FMA path when the CPU has FMA, so they also assume an FMA CPU:
// under GODEBUG=cpu.fma=off the cost matrix's last bits move and every
// golden of this package fails (ROADMAP item 17). The cross-checks
// fresh==pooled and seed-777≠seed-778 hold regardless of toolchain and
// CPU.
const (
	goldenSeed777 = "ca45515b87e266fd501c3adcf580628e24959ea1d590b03f50d52d932eeb8766"
	goldenSeed778 = "03cc73a2f201b86ed1a54facc33286cb05c8d5652c0f8aaf5fa4b821d3c15ee6"
)

// Golden hashes recorded on the two-kernel code, with the AoS per-host
// kernel that predated the single SoA host kernel, so they anchor the
// kernel against an independent implementation rather than against
// itself: the shared grid (gridConfig seed 777, equal and 25/75 shares;
// renderGridReport bytes), the host-model stress configuration
// (hostStressConfig seed 909) and the fault-plane stress configuration
// (faultStressConfig seed 777; renderReport bytes).
const (
	goldenGridEqual   = "752d990db3941b23d4b6687849f422fc30a14f8c8ef3cc894afd8d8a7dd0729a"
	goldenGrid2575    = "b4f77df2448656caf55f557460840287a82636ce186a415d7571fd742e84cc52"
	goldenStress909   = "8125af5690fc6fd090525e754269074e90915f4d428be4a2c15af73a709084ad"
	goldenFaultStress = "076b887758a265fcd05212f38193a06eff4cd32fdcdd028732ebc6251d58e00e"
)

func reportHash(t *testing.T, rep *Report) string {
	t.Helper()
	return hashBytes(renderReport(t, rep))
}

func gridHash(t *testing.T, rep *GridReport) string {
	t.Helper()
	return hashBytes(renderGridReport(t, rep))
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenSingleProjectFresh pins the fresh-run report bytes to the
// pre-refactor golden hashes.
func TestGoldenSingleProjectFresh(t *testing.T) {
	if got := reportHash(t, New(determinismConfig(t, 777)).Run()); got != goldenSeed777 {
		t.Errorf("fresh seed-777 report hash = %s, want golden %s (single-project byte-identity broken)", got, goldenSeed777)
	}
	if got := reportHash(t, New(determinismConfig(t, 778)).Run()); got != goldenSeed778 {
		t.Errorf("fresh seed-778 report hash = %s, want golden %s (single-project byte-identity broken)", got, goldenSeed778)
	}
}

// TestGoldenSingleProjectPooled pins the pooled (Runner reuse) path to the
// same golden hashes, with the arenas dirtied by a different run first.
func TestGoldenSingleProjectPooled(t *testing.T) {
	runner := NewRunner()
	runner.Run(determinismConfig(t, 778)) // dirty every arena
	if got := reportHash(t, runner.Run(determinismConfig(t, 777))); got != goldenSeed777 {
		t.Errorf("pooled seed-777 report hash = %s, want golden %s (pooled byte-identity broken)", got, goldenSeed777)
	}
	if got := reportHash(t, runner.Run(determinismConfig(t, 778))); got != goldenSeed778 {
		t.Errorf("pooled seed-778 report hash = %s, want golden %s (pooled byte-identity broken)", got, goldenSeed778)
	}
}

// TestShardedMatchesLegacyGolden pins the ShardKernel — its SoA plane, its
// window calendar and the (time, seq) merge — to the golden report hashes
// recorded on the former AoS per-host kernel, with the seed-777 and
// seed-778 campaigns running at once on two goroutines, as a sweep pool's
// workers run them: the kernel keeps no state outside its campaign, so
// concurrent runs reproduce an independent implementation's bytes.
func TestShardedMatchesLegacyGolden(t *testing.T) {
	cases := []struct {
		seed uint64
		want string
	}{{777, goldenSeed777}, {778, goldenSeed778}}
	cfgs := make([]Config, len(cases))
	for i, c := range cases {
		cfgs[i] = determinismConfig(t, c.seed)
	}
	reps := make([]*Report, len(cases))
	done := make(chan int)
	for i := range cases {
		go func() {
			reps[i] = New(cfgs[i]).Run()
			done <- i
		}()
	}
	for range cases {
		<-done
	}
	for i, c := range cases {
		if got := reportHash(t, reps[i]); got != c.want {
			t.Errorf("concurrent seed-%d hash = %s, want golden %s", c.seed, got, c.want)
		}
	}
}

// TestShardedPooledMatchesGolden pins the pooled ShardKernel to the same
// golden hashes after the arenas were dirtied by runs under another seed
// and another host model (a deeper work buffer, behavior cohorts and
// adaptive validation fill the calendar differently): the recycled
// calendar, plane and engine heap must not leak state from a differently
// shaped run.
func TestShardedPooledMatchesGolden(t *testing.T) {
	runner := NewRunner()
	runner.Run(determinismConfig(t, 778)) // dirty every arena
	runner.Run(hostStressConfig(t, 31))   // and change the host model
	if got := reportHash(t, runner.Run(determinismConfig(t, 777))); got != goldenSeed777 {
		t.Errorf("pooled seed-777 hash after a stress run = %s, want golden %s", got, goldenSeed777)
	}
	if got := reportHash(t, runner.Run(determinismConfig(t, 778))); got != goldenSeed778 {
		t.Errorf("pooled seed-778 hash after a stress run = %s, want golden %s", got, goldenSeed778)
	}
}

// TestGoldenGrid pins the shared-grid co-run, fresh and pooled, to the
// hashes recorded before the mux moved onto the kernel's SoA plane.
func TestGoldenGrid(t *testing.T) {
	cases := []struct {
		shares []float64
		want   string
	}{{nil, goldenGridEqual}, {[]float64{0.25, 0.75}, goldenGrid2575}}
	runner := NewGridRunner()
	runner.Run(gridConfig(t, 31, []float64{3, 1})) // dirty every arena
	for _, c := range cases {
		if got := gridHash(t, NewGrid(gridConfig(t, 777, c.shares)).Run()); got != c.want {
			t.Errorf("fresh grid shares %v: hash = %s, want golden %s", c.shares, got, c.want)
		}
		if got := gridHash(t, runner.Run(gridConfig(t, 777, c.shares))); got != c.want {
			t.Errorf("pooled grid shares %v: hash = %s, want golden %s", c.shares, got, c.want)
		}
	}
}

// hostStressConfig exercises every host-model path the seed-777/778 goldens
// do not: behavior cohorts (saboteurs + diurnal day-cycles), adaptive
// validation, a work buffer deeper than one, and BOINC CPU-time accounting.
func hostStressConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	cfg := determinismConfig(t, seed)
	cfg.Host.WorkBuffer = 3
	cfg.Host.Accounting = volunteer.BOINCCPUTime
	cfg.Host.Profiles = []volunteer.BehaviorProfile{
		{Weight: 0.70, ErrorProb: 0.01, AbandonProb: -1},
		{Weight: 0.05, ErrorProb: 0.004, AbandonProb: -1, Saboteur: true},
		{Weight: 0.25, ErrorProb: 0.02, AbandonProb: -1, Diurnal: true, OnlineHours: 12},
	}
	cfg.Server.Validator = wcg.AdaptiveValidator{Streak: 5}
	return cfg
}

// TestGoldenHostStress pins the host-model stress configuration to the
// golden bytes recorded on the former per-host kernel, fresh and pooled
// with the arenas dirtied by a stress run under another seed first.
func TestGoldenHostStress(t *testing.T) {
	if got := reportHash(t, New(hostStressConfig(t, 909)).Run()); got != goldenStress909 {
		t.Errorf("fresh stress hash = %s, want golden %s", got, goldenStress909)
	}
	runner := NewRunner()
	runner.Run(hostStressConfig(t, 31)) // dirty every arena
	if got := reportHash(t, runner.Run(hostStressConfig(t, 909))); got != goldenStress909 {
		t.Errorf("pooled stress hash = %s, want golden %s", got, goldenStress909)
	}
}
