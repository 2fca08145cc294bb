package project

import (
	"bytes"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// faultStressConfig is the determinism configuration with every fault class
// turned on at once: weekly maintenance, frequent unplanned outages, a
// lossy uplink with retries, and heavy churn. Faults exercise the host
// paths most likely to diverge (backoff scheduling, retry events, churn
// replacements), so the kernel-equality tests run it.
func faultStressConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	cfg := determinismConfig(t, seed)
	cfg.Faults = &faults.Config{
		MaintenanceEvery:     sim.Week,
		MaintenanceDuration:  4 * sim.Hour,
		UnplannedPerWeek:     0.2,
		UnplannedMeanSeconds: 8 * sim.Hour,
		UploadLossProb:       0.02,
		UploadRetries:        3,
		ChurnPerWeek:         0.05,
	}
	return cfg
}

// TestFaultRunByteEqualAcrossKernels is the fault plane's kernel invariant:
// a fault scenario reproduces the golden bytes recorded on the former
// per-host kernel at every shard count, fresh and pooled.
func TestFaultRunByteEqualAcrossKernels(t *testing.T) {
	base := renderReport(t, New(faultStressConfig(t, 777)).Run())
	if !bytes.Contains(base, []byte(`"Faults"`)) {
		t.Fatal("fault run report carries no Faults section")
	}
	if got := hashBytes(base); got != goldenFaultStress {
		t.Errorf("fault stress hash = %s, want golden %s", got, goldenFaultStress)
	}
	for _, k := range []int{1, 4, 8} {
		cfg := faultStressConfig(t, 777)
		cfg.Shards = k
		if got := renderReport(t, New(cfg).Run()); !bytes.Equal(got, base) {
			t.Errorf("shards=%d fault report differs from the default plan's", k)
		}
	}
	// Pooled: arenas dirtied by a different fault run, then the same cell.
	runner := NewRunner()
	runner.Run(faultStressConfig(t, 778))
	if got := renderReport(t, runner.Run(faultStressConfig(t, 777))); !bytes.Equal(got, base) {
		t.Error("pooled fault report differs from the fresh run")
	}
	pooledSharded := faultStressConfig(t, 777)
	pooledSharded.Shards = 4
	if got := renderReport(t, runner.Run(pooledSharded)); !bytes.Equal(got, base) {
		t.Error("pooled K=4 fault report differs from the fresh run")
	}
}

// TestZeroFaultConfigKeepsGoldenBytes pins the other half of the contract:
// an all-zero (disabled) fault config — and a pooled runner that just
// finished a fault run — still reproduce the pre-fault-plane golden hash
// exactly. The fault plane must cost zero bytes when off.
func TestZeroFaultConfigKeepsGoldenBytes(t *testing.T) {
	cfg := determinismConfig(t, 777)
	cfg.Faults = &faults.Config{} // present but disabled
	if got := reportHash(t, New(cfg).Run()); got != goldenSeed777 {
		t.Errorf("disabled fault config hash = %s, want golden %s", got, goldenSeed777)
	}

	// The pooled fault→zero-fault transition: the kernel must re-attach to
	// the raw server once the plane goes away.
	runner := NewRunner()
	runner.Run(faultStressConfig(t, 778))
	if got := reportHash(t, runner.Run(determinismConfig(t, 777))); got != goldenSeed777 {
		t.Errorf("pooled fault→zero-fault hash = %s, want golden %s (stale fault plane still bound?)", got, goldenSeed777)
	}
	shardedZero := determinismConfig(t, 777)
	shardedZero.Shards = 4
	if got := reportHash(t, runner.Run(shardedZero)); got != goldenSeed777 {
		t.Errorf("pooled fault→zero-fault sharded hash = %s, want golden %s", got, goldenSeed777)
	}
}

// TestFaultDegradationObservable checks the faults actually bite and the
// degradation machinery reports them: refused fetches, downtime, lost
// uploads, churned hosts, recoveries.
func TestFaultDegradationObservable(t *testing.T) {
	cfg := faultStressConfig(t, 777)
	rep := New(cfg).Run()
	fr := rep.Faults
	if fr == nil {
		t.Fatal("fault run produced no fault report")
	}
	if fr.Outages == 0 || fr.PlannedOutages == 0 || fr.DowntimeSeconds <= 0 {
		t.Errorf("no outages injected: %+v", fr)
	}
	if fr.LostUploads == 0 || fr.RetriedUploads == 0 {
		t.Errorf("flaky uplink never fired: %+v", fr)
	}
	if fr.Departures == 0 {
		t.Errorf("churn never fired: %+v", fr)
	}
	if fr.Recoveries == 0 || fr.MeanRecoverySeconds <= 0 {
		t.Errorf("no recoveries recorded: %+v", fr)
	}
	if rep.ServerStats.Refused == 0 {
		t.Error("server never refused a fetch during an outage")
	}

	// Churn turns hosts over: strictly more identities join than in the
	// fault-free run of the same configuration.
	base := New(determinismConfig(t, 777)).Run()
	if rep.HostsJoined <= base.HostsJoined {
		t.Errorf("churned run joined %d hosts, fault-free %d — replacements missing",
			rep.HostsJoined, base.HostsJoined)
	}
	if base.Faults != nil {
		t.Error("fault-free run carries a Faults report")
	}
	if base.ServerStats.Refused != 0 || base.ServerStats.Deferred != 0 {
		t.Error("fault-free run recorded refused/deferred results")
	}
}

// TestDeferredValidationDrains checks the outage spool: results that arrive
// while the server is down are deferred, then validated at the window end —
// the run still completes and the deferred count shows up in ServerStats.
func TestDeferredValidationDrains(t *testing.T) {
	cfg := determinismConfig(t, 777)
	cfg.Faults = &faults.Config{
		MaintenanceEvery:    sim.Week,
		MaintenanceDuration: 12 * sim.Hour, // long windows so uploads land inside
	}
	rep := New(cfg).Run()
	if rep.ServerStats.Deferred == 0 {
		t.Skip("no result happened to arrive inside an outage window at this scale")
	}
	if !rep.Completed {
		t.Error("campaign with deferred validation did not complete")
	}
	if rep.ServerStats.Received == 0 {
		t.Error("deferred results were never validated")
	}
}
