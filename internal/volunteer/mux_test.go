package volunteer

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/wcg"
	"repro/internal/workunit"
)

// muxFixture builds an engine, n quorum-1 servers preloaded with work, and
// a mux attaching them under the given weights.
func muxFixture(t *testing.T, weights []float64, wus int, refSeconds func(p, i int) float64) (*sim.Engine, *Mux) {
	t.Helper()
	engine := sim.NewEngine()
	cfg := wcg.DefaultConfig()
	cfg.InitialQuorum, cfg.SteadyQuorum, cfg.QuorumSwitchTime = 1, 1, 0
	m := NewMux()
	for p, w := range weights {
		s := wcg.NewServer(engine, cfg)
		for i := 0; i < wus; i++ {
			s.AddWorkunit(workunit.Workunit{ID: int64(i), RefSeconds: refSeconds(p, i)}, 0)
		}
		m.Attach(s, w)
	}
	return engine, m
}

func TestMuxSharesNormalized(t *testing.T) {
	_, m := muxFixture(t, []float64{2, 1, 1}, 1, func(int, int) float64 { return 3600 })
	want := []float64{0.5, 0.25, 0.25}
	var sum float64
	for i := 0; i < m.Projects(); i++ {
		if got := m.Share(i); math.Abs(got-want[i]) > 1e-12 {
			t.Errorf("share[%d] = %v, want %v", i, got, want[i])
		}
		sum += m.Share(i)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
}

func TestMuxAttachValidation(t *testing.T) {
	engine := sim.NewEngine()
	s := wcg.NewServer(engine, wcg.DefaultConfig())
	for _, bad := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("share %v should panic", bad)
				}
			}()
			NewMux().Attach(s, bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil server should panic")
			}
		}()
		NewMux().Attach(nil, 1)
	}()
}

// TestMuxPortDebtInvariants drives one host through a long fetch sequence
// over servers with varying workunit sizes and checks the two debt
// invariants after every fetch: debts sum to zero (the update is zero-sum
// by construction) and every debt stays within a small multiple of the
// largest workunit (no unbounded drift).
func TestMuxPortDebtInvariants(t *testing.T) {
	const maxRef = 4 * 3600.0
	sizes := func(p, i int) float64 { return 1800 + float64((i*7+p*13)%4)*1800/2 } // 0.5h..~1.25h, capped well under maxRef
	_, m := muxFixture(t, []float64{0.1, 0.3, 0.6}, 5000, sizes)
	m.arm(0, 99)
	counts := make([]int, 3)
	for i := 0; i < 6000; i++ {
		a := m.RequestWorkFor(0)
		if a == nil {
			break
		}
		counts[a.Project()]++
		debts := m.Debts(0)
		var sum float64
		for j, d := range debts {
			sum += d
			if math.Abs(d) > 3*maxRef {
				t.Fatalf("fetch %d: debt[%d] = %v drifted beyond ±3×maxRef", i, j, d)
			}
		}
		if math.Abs(sum) > 1e-6 {
			t.Fatalf("fetch %d: debts sum to %v, want 0 (debts %v)", i, sum, debts)
		}
	}
	for j, c := range counts {
		if c == 0 {
			t.Fatalf("project %d never served (counts %v)", j, counts)
		}
	}
}

// TestMuxPortShareConvergence fetches a long sequence and checks the
// ref-second-weighted split converges to the configured shares.
func TestMuxPortShareConvergence(t *testing.T) {
	_, m := muxFixture(t, []float64{0.25, 0.75}, 20000, func(int, int) float64 { return 3600 })
	m.arm(0, 7)
	var ref [2]float64
	for i := 0; i < 8000; i++ {
		a := m.RequestWorkFor(0)
		if a == nil {
			t.Fatal("ran out of work")
		}
		ref[a.Project()] += a.WU.RefSeconds
	}
	got := ref[0] / (ref[0] + ref[1])
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("project 0 got %.4f of ref-seconds, want 0.25 ±0.01", got)
	}
}

// TestMuxIdleTenantYields starves one project and checks the other absorbs
// every fetch while the idle project's debt stays frozen — the
// work-available signaling contract.
func TestMuxIdleTenantYields(t *testing.T) {
	engine := sim.NewEngine()
	cfg := wcg.DefaultConfig()
	cfg.InitialQuorum, cfg.SteadyQuorum, cfg.QuorumSwitchTime = 1, 1, 0
	busy := wcg.NewServer(engine, cfg)
	idle := wcg.NewServer(engine, cfg)
	for i := 0; i < 100; i++ {
		busy.AddWorkunit(workunit.Workunit{ID: int64(i), RefSeconds: 3600}, 0)
	}
	m := NewMux()
	m.Attach(busy, 0.5)
	m.Attach(idle, 0.5)
	m.arm(0, 3)
	for i := 0; i < 50; i++ {
		a := m.RequestWorkFor(0)
		if a == nil || a.Project() != 0 {
			t.Fatalf("fetch %d: got %v, want work from the busy project", i, a)
		}
		debts := m.Debts(0)
		if debts[1] != 0 {
			t.Fatalf("idle project accumulated debt %v; it must yield its slice", debts[1])
		}
		if debts[0] != 0 {
			t.Fatalf("sole busy project's debt should stay 0 (renormalized share 1), got %v", debts[0])
		}
	}
	// Work arrives at the idle tenant: it is served next (debts tie at 0,
	// then the busy project's consumption pushes fetches its way).
	idle.AddWorkunit(workunit.Workunit{ID: 1000, RefSeconds: 3600}, 0)
	seen := false
	for i := 0; i < 4 && !seen; i++ {
		if a := m.RequestWorkFor(0); a != nil && a.Project() == 1 {
			seen = true
		}
	}
	if !seen {
		t.Fatal("re-stocked tenant never served")
	}
}

// TestMuxPortDeterministicTieBreaks: same seed, same fetch decisions; the
// tie-break stream is the host's own.
func TestMuxPortDeterministicTieBreaks(t *testing.T) {
	run := func() []int {
		_, m := muxFixture(t, []float64{1, 1, 1}, 2000, func(int, int) float64 { return 3600 })
		m.arm(0, 1234)
		out := make([]int, 0, 600)
		for i := 0; i < 600; i++ {
			a := m.RequestWorkFor(0)
			if a == nil {
				t.Fatal("ran out of work")
			}
			out = append(out, a.Project())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fetch %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestMuxPortReuse re-arms a host's columns (the pooled-kernel path) and
// checks the debt vector and stream reset exactly as a fresh host's.
func TestMuxPortReuse(t *testing.T) {
	_, m := muxFixture(t, []float64{0.3, 0.7}, 5000, func(int, int) float64 { return 3600 })
	m.arm(0, 55) // fresh
	m.arm(1, 77)
	for i := 0; i < 100; i++ {
		m.RequestWorkFor(1) // dirty the debts
	}
	m.arm(1, 55)
	for i := 0; i < 200; i++ {
		a, b := m.RequestWorkFor(0), m.RequestWorkFor(1)
		if (a == nil) != (b == nil) || (a != nil && a.Project() != b.Project()) {
			t.Fatalf("fetch %d: re-armed host diverged from fresh", i)
		}
	}
}

// TestMuxDropsReachTheIssuingServer: on a co-run whose hosts abandon copies
// and stop with full work buffers, every given-up copy reaches the server
// that issued it, so once the fleet has drained each server holds no live
// record but its arenas' chunks still being carved. A mux that lost drops
// would leave a dropped copy, and the chunk holding it, live on its
// server; one that misrouted them would release another server's slots.
func TestMuxDropsReachTheIssuingServer(t *testing.T) {
	engine, m := muxFixture(t, []float64{1, 2}, 3*512, func(p, i int) float64 { return float64(1800 + 600*p + i%7) })
	cfg := DefaultHostConfig()
	cfg.WorkBuffer = 3
	cfg.AbandonProb = 0.2
	cfg.LateReturnProb = 0.5
	k := newKernel(engine, m, cfg, 5)
	k.SetTarget(200)
	for w := sim.Time(1); w <= 52 && m.atts[0].server.Stats.Completed+m.atts[1].server.Stats.Completed < 2*3*512; w++ {
		k.RunUntil(w * sim.Week)
	}
	k.SetTarget(0)
	k.RunUntil(60 * sim.Week)
	if engine.Counters().Pending != 0 {
		t.Fatalf("%d events still pending", engine.Counters().Pending)
	}
	// One chunk per arena may still be carving: 512 workunit records of
	// 32 B and 512 portable copies of 16 B, plus the bitmaps and tables.
	const limit = 512*(32+16) + 1024
	for p := 0; p < m.Projects(); p++ {
		s := m.atts[p].server
		if s.Stats.Completed != 3*512 {
			t.Fatalf("project %d completed %d of %d", p, s.Stats.Completed, 3*512)
		}
		if b := s.ExportPortable().Bytes(); b > limit {
			t.Errorf("project %d: drained server snapshot holds %d B, want at most %d: copies still live", p, b, limit)
		}
	}
}
