package project

import (
	"bytes"
	"testing"

	"repro/internal/volunteer"
	"repro/internal/wcg"
)

// shardedConfig returns the determinism configuration running on the
// sharded kernel with K shards.
func shardedConfig(t *testing.T, seed uint64, shards int) Config {
	t.Helper()
	cfg := determinismConfig(t, seed)
	cfg.Shards = shards
	return cfg
}

// TestShardedMatchesLegacyGolden pins the kernel — sequential (K=1) and
// parallel (K=4) — to the golden report hashes recorded in PR 5/6 on the
// former AoS per-host kernel: the SoA plane and the time-window merge must
// reproduce an independent implementation's bytes, not merely agree with
// themselves.
func TestShardedMatchesLegacyGolden(t *testing.T) {
	for _, shards := range []int{1, 4} {
		if got := reportHash(t, New(shardedConfig(t, 777, shards)).Run()); got != goldenSeed777 {
			t.Errorf("K=%d seed-777 hash = %s, want golden %s", shards, got, goldenSeed777)
		}
		if got := reportHash(t, New(shardedConfig(t, 778, shards)).Run()); got != goldenSeed778 {
			t.Errorf("K=%d seed-778 hash = %s, want golden %s", shards, got, goldenSeed778)
		}
	}
}

// TestShardedPooledMatchesGolden pins the pooled sharded path to the same
// golden hashes, with the arenas dirtied by runs under different seeds and
// shard counts first (including a shard-count change mid-pool).
func TestShardedPooledMatchesGolden(t *testing.T) {
	runner := NewRunner()
	runner.Run(shardedConfig(t, 778, 4)) // dirty every arena
	runner.Run(shardedConfig(t, 31, 2))  // and change the shard count
	if got := reportHash(t, runner.Run(shardedConfig(t, 777, 4))); got != goldenSeed777 {
		t.Errorf("pooled sharded seed-777 hash = %s, want golden %s", got, goldenSeed777)
	}
	if got := reportHash(t, runner.Run(shardedConfig(t, 778, 1))); got != goldenSeed778 {
		t.Errorf("pooled sharded seed-778 hash = %s, want golden %s", got, goldenSeed778)
	}
}

// TestShardedPooledModeSwitch runs the default plan (Shards 0, i.e. K=1)
// and explicit shard counts back to back on one pooled Runner: switching
// the shard layout mid-pool must not leak calendar state either way.
func TestShardedPooledModeSwitch(t *testing.T) {
	runner := NewRunner()
	if got := reportHash(t, runner.Run(determinismConfig(t, 777))); got != goldenSeed777 {
		t.Fatalf("pooled default-plan seed-777 hash = %s, want golden %s", got, goldenSeed777)
	}
	if got := reportHash(t, runner.Run(shardedConfig(t, 777, 3))); got != goldenSeed777 {
		t.Errorf("K=1→3 pooled switch: hash = %s, want golden %s", got, goldenSeed777)
	}
	if got := reportHash(t, runner.Run(determinismConfig(t, 778))); got != goldenSeed778 {
		t.Errorf("K=3→1 pooled switch: hash = %s, want golden %s", got, goldenSeed778)
	}
}

// shardedStressConfig exercises every host-model path the goldens do not:
// behavior cohorts (saboteurs + diurnal day-cycles), adaptive validation,
// a work buffer deeper than one, and BOINC CPU-time accounting.
func shardedStressConfig(t *testing.T, seed uint64, shards int) Config {
	t.Helper()
	cfg := determinismConfig(t, seed)
	cfg.Shards = shards
	cfg.Host.WorkBuffer = 3
	cfg.Host.Accounting = volunteer.BOINCCPUTime
	cfg.Host.Profiles = []volunteer.BehaviorProfile{
		{Name: "faithful", Weight: 0.70, ErrorProb: 0.01, AbandonProb: -1},
		{Name: "saboteur", Weight: 0.05, ErrorProb: 0.004, AbandonProb: -1, Saboteur: true},
		{Name: "diurnal", Weight: 0.25, ErrorProb: 0.02, AbandonProb: -1, Diurnal: true, OnlineHours: 12},
	}
	cfg.Server.Validator = wcg.AdaptiveValidator{Streak: 5}
	return cfg
}

// TestShardedOneVsN is the K-invariance guarantee on the stress
// configuration: K=1 reproduces the golden bytes recorded on the former
// per-host kernel, and the shard count changes only who computes, never
// what. Fresh runs and pooled runs both.
func TestShardedOneVsN(t *testing.T) {
	base := renderReport(t, New(shardedStressConfig(t, 909, 1)).Run())
	if got := hashBytes(base); got != goldenStress909 {
		t.Errorf("stress K=1 hash = %s, want golden %s", got, goldenStress909)
	}
	for _, shards := range []int{2, 8} {
		got := renderReport(t, New(shardedStressConfig(t, 909, shards)).Run())
		if !bytes.Equal(base, got) {
			t.Errorf("fresh run K=%d diverged from K=1:\nK=1: %.200s…\nK=%d: %.200s…", shards, base, shards, got)
		}
	}
	runner := NewRunner()
	runner.Run(shardedStressConfig(t, 31, 2)) // dirty the arenas
	if got := renderReport(t, runner.Run(shardedStressConfig(t, 909, 8))); !bytes.Equal(base, got) {
		t.Errorf("pooled run K=8 diverged from fresh K=1:\nfresh: %.200s…\npooled: %.200s…", base, got)
	}
}
