package wcg

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/workunit"
)

func newTestServer(cfg Config) (*sim.Engine, *Server) {
	engine := sim.NewEngine()
	return engine, NewServer(engine, cfg)
}

func q1Config() Config {
	return Config{InitialQuorum: 1, SteadyQuorum: 1, Deadline: 10 * sim.Day}
}

func wu(id int64, secs float64) workunit.Workunit {
	return workunit.Workunit{ID: id, ISepLo: 1, ISepHi: 5, RefSeconds: secs}
}

func TestSingleWorkunitLifecycle(t *testing.T) {
	engine, srv := newTestServer(q1Config())
	srv.AddWorkunit(wu(1, 100), 0)
	if !srv.HasWork() {
		t.Fatal("server should have work")
	}
	a := srv.RequestWork()
	if a == nil {
		t.Fatal("no assignment")
	}
	if srv.HasWork() {
		t.Fatal("single quorum-1 workunit should be exhausted once assigned")
	}
	if srv.RequestWork() != nil {
		t.Fatal("second request should find nothing")
	}
	srv.Complete(a, OutcomeValid, 400)
	if srv.Stats.Completed != 1 || srv.Stats.Useful != 1 {
		t.Fatalf("stats: %+v", srv.Stats)
	}
	if srv.Stats.CPUSeconds != 400 {
		t.Fatalf("cpu = %v", srv.Stats.CPUSeconds)
	}
	_ = engine
}

func TestQuorum2NeedsTwoResults(t *testing.T) {
	cfg := Config{InitialQuorum: 2, SteadyQuorum: 2, Deadline: 10 * sim.Day}
	_, srv := newTestServer(cfg)
	srv.AddWorkunit(wu(1, 100), 0)
	a1 := srv.RequestWork()
	a2 := srv.RequestWork()
	if a1 == nil || a2 == nil {
		t.Fatal("quorum-2 should hand out two copies")
	}
	if srv.RequestWork() != nil {
		t.Fatal("no third copy while two are out")
	}
	srv.Complete(a1, OutcomeValid, 100)
	if srv.Stats.Completed != 0 {
		t.Fatal("one result must not complete a quorum-2 workunit")
	}
	srv.Complete(a2, OutcomeValid, 100)
	if srv.Stats.Completed != 1 {
		t.Fatal("two results should complete")
	}
	if srv.Stats.Useful != 2 {
		t.Fatalf("both quorum results are useful: %+v", srv.Stats)
	}
	if got := srv.Stats.RedundancyFactor(); got != 2 {
		t.Fatalf("redundancy = %v, want 2", got)
	}
}

func TestQuorumSwitch(t *testing.T) {
	cfg := Config{InitialQuorum: 2, SteadyQuorum: 1, QuorumSwitchTime: 100, Deadline: 10 * sim.Day}
	engine, srv := newTestServer(cfg)
	srv.AddWorkunit(wu(1, 10), 0)
	a1 := srv.RequestWork()
	a2 := srv.RequestWork()
	if a1 == nil || a2 == nil {
		t.Fatal("early era should replicate")
	}
	// Move past the switch; one valid result now suffices.
	engine.RunUntil(200)
	srv.Complete(a1, OutcomeValid, 10)
	if srv.Stats.Completed != 1 {
		t.Fatal("steady-era quorum 1 should complete with one result")
	}
	// The second copy comes back late-ish: counted but wasted.
	srv.Complete(a2, OutcomeValid, 10)
	if srv.Stats.Wasted != 1 {
		t.Fatalf("wasted = %d", srv.Stats.Wasted)
	}
}

func TestInvalidResultReissued(t *testing.T) {
	_, srv := newTestServer(q1Config())
	srv.AddWorkunit(wu(1, 100), 0)
	a := srv.RequestWork()
	srv.Complete(a, OutcomeInvalid, 50)
	if srv.Stats.Invalid != 1 {
		t.Fatalf("invalid = %d", srv.Stats.Invalid)
	}
	if srv.Stats.Completed != 0 {
		t.Fatal("invalid result must not complete")
	}
	if !srv.HasWork() {
		t.Fatal("workunit should be back in the queue")
	}
	b := srv.RequestWork()
	if b == nil {
		t.Fatal("reissue failed")
	}
	srv.Complete(b, OutcomeValid, 120)
	if srv.Stats.Completed != 1 {
		t.Fatal("not completed after reissue")
	}
	if srv.Stats.WastedSeconds != 50 {
		t.Fatalf("wasted seconds = %v", srv.Stats.WastedSeconds)
	}
}

func TestTimeoutReissuesAndLateCounts(t *testing.T) {
	engine, srv := newTestServer(q1Config())
	srv.AddWorkunit(wu(1, 100), 0)
	a := srv.RequestWork()
	// Let the deadline pass.
	engine.RunUntil(11 * sim.Day)
	if srv.Stats.TimedOut != 1 {
		t.Fatalf("timeouts = %d", srv.Stats.TimedOut)
	}
	b := srv.RequestWork()
	if b == nil {
		t.Fatal("no replacement copy after timeout")
	}
	if srv.Stats.Sent != 2 {
		t.Fatalf("sent = %d", srv.Stats.Sent)
	}
	srv.Complete(b, OutcomeValid, 100)
	if srv.Stats.Completed != 1 {
		t.Fatal("replacement did not complete")
	}
	// The original copy finally returns: accepted, counted as wasted.
	srv.Complete(a, OutcomeValid, 300)
	if srv.Stats.Wasted != 1 || srv.Stats.Received != 2 {
		t.Fatalf("late return handling: %+v", srv.Stats)
	}
	if got := srv.Stats.RedundancyFactor(); got != 2 {
		t.Fatalf("redundancy = %v", got)
	}
	if got := srv.Stats.UsefulFraction(); got != 0.5 {
		t.Fatalf("useful fraction = %v", got)
	}
}

func TestLateResultCanStillValidate(t *testing.T) {
	// If the workunit is not yet completed when a timed-out copy returns,
	// the late result validates it (the paper: reconnecting agents' results
	// "taken into account").
	engine, srv := newTestServer(q1Config())
	srv.AddWorkunit(wu(1, 100), 0)
	a := srv.RequestWork()
	engine.RunUntil(11 * sim.Day) // a times out, replacement queued
	if b := srv.RequestWork(); b == nil {
		t.Fatal("expected replacement available")
	}
	// Replacement is out but slow; the original comes back first.
	srv.Complete(a, OutcomeValid, 500)
	if srv.Stats.Completed != 1 {
		t.Fatal("late result should complete the workunit")
	}
}

func TestOnCompleteCallback(t *testing.T) {
	_, srv := newTestServer(q1Config())
	ids := make(map[*WUState]int64)
	var got []int64
	srv.OnComplete = func(st *WUState) { got = append(got, ids[st]) }
	ids[srv.AddWorkunit(wu(7, 10), 3)] = 7
	a := srv.RequestWork()
	srv.Complete(a, OutcomeValid, 10)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("callback got %v", got)
	}
}

func TestOnWeekCPU(t *testing.T) {
	engine, srv := newTestServer(q1Config())
	weekly := map[int]float64{}
	srv.OnWeekCPU = func(week int, cpu float64) { weekly[week] += cpu }
	srv.AddWorkunit(wu(1, 10), 0)
	srv.AddWorkunit(wu(2, 10), 0)
	a := srv.RequestWork()
	srv.Complete(a, OutcomeValid, 100)
	engine.RunUntil(8 * sim.Day) // into week 1
	b := srv.RequestWork()
	srv.Complete(b, OutcomeValid, 200)
	if weekly[0] != 100 || weekly[1] != 200 {
		t.Fatalf("weekly cpu = %v", weekly)
	}
}

func TestFIFOOrder(t *testing.T) {
	_, srv := newTestServer(q1Config())
	ids := make(map[*WUState]int64)
	for i := int64(0); i < 5; i++ {
		ids[srv.AddWorkunit(wu(i, 10), 0)] = i
	}
	for i := int64(0); i < 5; i++ {
		a := srv.RequestWork()
		if ids[a.WU] != i {
			t.Fatalf("got WU %d, want %d", ids[a.WU], i)
		}
	}
}

func TestPendingCount(t *testing.T) {
	_, srv := newTestServer(q1Config())
	for i := int64(0); i < 4; i++ {
		srv.AddWorkunit(wu(i, 10), 0)
	}
	if srv.PendingCount() != 4 {
		t.Fatalf("pending = %d", srv.PendingCount())
	}
	a := srv.RequestWork()
	if srv.PendingCount() != 3 {
		t.Fatalf("pending after assign = %d", srv.PendingCount())
	}
	srv.Complete(a, OutcomeValid, 10)
	if srv.PendingCount() != 3 {
		t.Fatalf("pending after complete = %d", srv.PendingCount())
	}
}

func TestQueueCompaction(t *testing.T) {
	// Push enough workunits through to trigger compaction and verify
	// nothing is lost.
	_, srv := newTestServer(q1Config())
	const n = 5000
	for i := int64(0); i < n; i++ {
		srv.AddWorkunit(wu(i, 1), 0)
	}
	for i := 0; i < n; i++ {
		a := srv.RequestWork()
		if a == nil {
			t.Fatalf("ran out of work at %d", i)
		}
		srv.Complete(a, OutcomeValid, 1)
	}
	if srv.Stats.Completed != n {
		t.Fatalf("completed %d of %d", srv.Stats.Completed, n)
	}
	if srv.RequestWork() != nil {
		t.Fatal("queue should be empty")
	}
}

func TestStatsAccounting(t *testing.T) {
	// The paper's numbers: 5,418,010 results received for 3,936,010
	// distinct workunits ⇒ redundancy 1.37, useful fraction 73 %.
	s := Stats{Sent: 5418010, Completed: 3936010, Received: 5418010}
	if math.Abs(s.RedundancyFactor()-1.3765) > 1e-3 {
		t.Fatalf("redundancy = %v", s.RedundancyFactor())
	}
	if math.Abs(s.UsefulFraction()-0.7265) > 1e-3 {
		t.Fatalf("useful = %v", s.UsefulFraction())
	}
	var zero Stats
	if zero.RedundancyFactor() != 0 || zero.UsefulFraction() != 0 {
		t.Fatal("zero stats should report 0")
	}
}

func TestServerString(t *testing.T) {
	_, srv := newTestServer(q1Config())
	if srv.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestConfigValidation(t *testing.T) {
	engine := sim.NewEngine()
	for i, cfg := range []Config{
		{InitialQuorum: 0, SteadyQuorum: 1, Deadline: 1},
		{InitialQuorum: 1, SteadyQuorum: 0, Deadline: 1},
		{InitialQuorum: 1, SteadyQuorum: 1, Deadline: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should panic", i)
				}
			}()
			NewServer(engine, cfg)
		}()
	}
}

func TestCompleteNilPanics(t *testing.T) {
	_, srv := newTestServer(q1Config())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	srv.Complete(nil, OutcomeValid, 0)
}

func BenchmarkServerThroughput(b *testing.B) {
	engine, srv := newTestServer(q1Config())
	for i := int64(0); i < int64(b.N); i++ {
		srv.AddWorkunit(wu(i, 1), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := srv.RequestWork()
		srv.Complete(a, OutcomeValid, 1)
	}
	_ = engine
}
