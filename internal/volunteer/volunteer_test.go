package volunteer

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wcg"
	"repro/internal/workunit"
)

// testWindow is the calendar window of the unit-test kernels.
const testWindow = sim.Hour

// newKernel builds a kernel over src with its own population stream.
func newKernel(engine *sim.Engine, src WorkSource, cfg HostConfig, seed uint64) *ShardKernel {
	return NewShardKernel(engine, src, cfg, rng.New(seed), testWindow)
}

// join switches the configuration later spawns are sampled from and grows
// the fleet by n hosts — how a test puts hosts of different behaviour on
// one kernel.
func join(k *ShardKernel, cfg HostConfig, n int) {
	k.cfg = cfg
	k.SetTarget(k.Active() + n)
}

func makeServer(t testing.TB, engine *sim.Engine, nWU int, refSeconds float64) *wcg.Server {
	t.Helper()
	srv := wcg.NewServer(engine, wcg.Config{
		InitialQuorum: 1,
		SteadyQuorum:  1,
		Deadline:      12 * sim.Day,
	})
	for i := 0; i < nWU; i++ {
		srv.AddWorkunit(workunit.Workunit{ID: int64(i), ISepLo: 1, ISepHi: 10, RefSeconds: refSeconds}, 0)
	}
	return srv
}

func TestMeanSpeedDownConstant(t *testing.T) {
	if math.Abs(MeanSpeedDown-3.96) > 0.05 {
		t.Fatalf("MeanSpeedDown = %v, want ≈ 3.96 (§6)", MeanSpeedDown)
	}
}

func TestHostSpeedDownDistribution(t *testing.T) {
	engine := sim.NewEngine()
	srv := makeServer(t, engine, 1, 100)
	const n = 20000
	k := newKernel(engine, srv, DefaultHostConfig(), 1)
	k.SetTarget(n)
	var invSum float64
	for i, sd := range k.speedDown {
		if sd < 1 {
			t.Fatalf("host %d speed-down %v < 1", i, sd)
		}
		invSum += 1 / sd
	}
	// The throughput-weighted (harmonic) mean is what the paper observes.
	harmonic := n / invSum
	if math.Abs(harmonic-MeanSpeedDown)/MeanSpeedDown > 0.03 {
		t.Fatalf("harmonic mean speed-down %v, want ≈ %v", harmonic, MeanSpeedDown)
	}
}

func TestHostCompletesWork(t *testing.T) {
	engine := sim.NewEngine()
	srv := makeServer(t, engine, 5, 1000)
	cfg := DefaultHostConfig()
	cfg.AbandonProb = 0
	cfg.ErrorProb = 0
	k := newKernel(engine, srv, cfg, 2)
	k.SetTarget(1)
	k.RunUntil(52 * sim.Week)
	if srv.Stats.Completed != 5 {
		t.Fatalf("completed %d of 5 workunits", srv.Stats.Completed)
	}
	if k.done[0] != 5 {
		t.Fatalf("host done = %d", k.done[0])
	}
	// Reported CPU = refSeconds × speed-down for every task.
	want := 5 * 1000 * k.speedDown[0]
	if math.Abs(k.cpuSpent[0]-want) > 1e-6 {
		t.Fatalf("cpuSpent = %v, want %v", k.cpuSpent[0], want)
	}
}

func TestHostStopsAfterCurrentTask(t *testing.T) {
	engine := sim.NewEngine()
	srv := makeServer(t, engine, 100, 1000)
	cfg := DefaultHostConfig()
	cfg.AbandonProb = 0
	cfg.ErrorProb = 0
	k := newKernel(engine, srv, cfg, 3)
	k.SetTarget(1)
	// Stop the host shortly after it picks up its first task.
	engine.ScheduleAfter(1, func() { k.SetTarget(0) })
	k.RunUntil(52 * sim.Week)
	if k.done[0] != 1 {
		t.Fatalf("stopped host completed %d tasks, want exactly 1", k.done[0])
	}
}

func TestHostErrorCausesResend(t *testing.T) {
	engine := sim.NewEngine()
	srv := makeServer(t, engine, 1, 100)
	cfg := DefaultHostConfig()
	cfg.AbandonProb = 0
	cfg.ErrorProb = 1 // always invalid
	k := newKernel(engine, srv, cfg, 4)
	k.SetTarget(1)
	k.RunUntil(sim.Day)
	k.SetTarget(0)
	// A clean host finishes the job.
	good := cfg
	good.ErrorProb = 0
	join(k, good, 1)
	k.RunUntil(20 * sim.Day)
	if srv.Stats.Invalid == 0 {
		t.Fatal("no invalid results recorded")
	}
	if srv.Stats.Completed != 1 {
		t.Fatalf("workunit not completed after resend: %+v", srv.Stats)
	}
}

func TestAbandonTimesOutAndReissues(t *testing.T) {
	engine := sim.NewEngine()
	srv := makeServer(t, engine, 1, 100)
	cfg := DefaultHostConfig()
	cfg.AbandonProb = 1
	cfg.LateReturnProb = 0
	k := newKernel(engine, srv, cfg, 6)
	k.SetTarget(1)
	k.RunUntil(sim.Hour)
	k.SetTarget(0)
	good := DefaultHostConfig()
	good.AbandonProb = 0
	good.ErrorProb = 0
	join(k, good, 1)
	k.RunUntil(60 * sim.Day)
	if srv.Stats.TimedOut == 0 {
		t.Fatal("no timeout recorded")
	}
	if srv.Stats.Completed != 1 {
		t.Fatalf("workunit not reissued and completed: %+v", srv.Stats)
	}
}

func TestLateReturnCountedAsWasted(t *testing.T) {
	engine := sim.NewEngine()
	srv := makeServer(t, engine, 1, 100)
	cfg := DefaultHostConfig()
	cfg.AbandonProb = 1
	cfg.LateReturnProb = 1
	k := newKernel(engine, srv, cfg, 8)
	k.SetTarget(1)
	k.RunUntil(sim.Hour)
	k.SetTarget(0)
	good := DefaultHostConfig()
	good.AbandonProb = 0
	good.ErrorProb = 0
	join(k, good, 1)
	k.RunUntil(80 * sim.Day)
	if srv.Stats.Completed != 1 {
		t.Fatalf("not completed: %+v", srv.Stats)
	}
	// The late copy eventually arrived after the good host validated the
	// workunit: received > useful.
	if srv.Stats.Received != 2 {
		t.Fatalf("received %d results, want 2 (one late)", srv.Stats.Received)
	}
	if srv.Stats.Wasted != 1 {
		t.Fatalf("wasted = %d, want 1", srv.Stats.Wasted)
	}
}

func TestPopulationSetTarget(t *testing.T) {
	engine := sim.NewEngine()
	srv := makeServer(t, engine, 10000, 3600)
	cfg := DefaultHostConfig()
	cfg.AbandonProb = 0
	cfg.ErrorProb = 0
	k := newKernel(engine, srv, cfg, 10)
	k.SetTarget(50)
	if k.Active() != 50 {
		t.Fatalf("active = %d", k.Active())
	}
	k.RunUntil(sim.Day)
	k.SetTarget(20)
	if k.Active() != 20 {
		t.Fatalf("after shrink: active = %d", k.Active())
	}
	// The oldest hosts stop first.
	for i := 0; i < 30; i++ {
		if k.flags[i]&hfStopped == 0 {
			t.Fatalf("host %d still active after the shrink; the oldest must stop first", i)
		}
	}
	k.SetTarget(80)
	if k.Active() != 80 {
		t.Fatalf("after regrow: active = %d", k.Active())
	}
	if k.TotalJoined() != 110 { // 50 + 60 new (stopped ones don't return)
		t.Fatalf("total joined = %d", k.TotalJoined())
	}
	k.SetTarget(-5)
	if k.Active() != 0 {
		t.Fatalf("negative target should stop everyone, active = %d", k.Active())
	}
}

func TestPopulationThroughputScales(t *testing.T) {
	// Twice the hosts should complete roughly twice the work in the same
	// window.
	run := func(hosts int) int64 {
		engine := sim.NewEngine()
		srv := makeServer(t, engine, 100000, 3600)
		k := newKernel(engine, srv, DefaultHostConfig(), 42)
		k.SetTarget(hosts)
		k.RunUntil(4 * sim.Week)
		return srv.Stats.Completed
	}
	c1 := run(20)
	c2 := run(40)
	ratio := float64(c2) / float64(c1)
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("throughput ratio %v for 2x hosts (completed %d vs %d)", ratio, c1, c2)
	}
}

func TestMeanSpeedDownAccessor(t *testing.T) {
	engine := sim.NewEngine()
	srv := makeServer(t, engine, 10, 100)
	k := newKernel(engine, srv, DefaultHostConfig(), 3)
	if k.MeanSpeedDown() != 0 {
		t.Fatal("empty fleet should report 0")
	}
	k.SetTarget(100)
	m := k.MeanSpeedDown()
	if m < 2.5 || m > 6.5 {
		t.Fatalf("fleet mean speed-down %v out of plausible band", m)
	}
}

func TestGridModelFigure1Shape(t *testing.T) {
	g := DefaultGridModel()
	const days = 3 * 364 // three years from launch
	series := g.DailyVFTP(days, 1)
	if len(series) != days {
		t.Fatalf("len = %d", len(series))
	}
	// Growth: final quarter mean well above first quarter mean.
	q := days / 4
	var first, last float64
	for d := 0; d < q; d++ {
		first += series[d]
		last += series[days-1-d]
	}
	if last < 3*first {
		t.Fatalf("grid did not grow enough: first-quarter sum %v, last %v", first, last)
	}
	// Weekend dip: weekday mean above weekend mean.
	var cal sim.Calendar
	var wd, we, nwd, nwe float64
	for d := 0; d < days; d++ {
		if cal.IsWeekend(float64(d) * sim.Day) {
			we += series[d]
			nwe++
		} else {
			wd += series[d]
			nwd++
		}
	}
	if wd/nwd <= we/nwe {
		t.Fatal("no weekend dip in Figure 1 series")
	}
	// Holiday dip: Christmas window below the surrounding trend.
	xmas := series[40]
	beforeXmas := series[30]
	if xmas > beforeXmas {
		t.Fatalf("no Christmas dip: day40=%v day30=%v", xmas, beforeXmas)
	}
}

func TestGridModelDeterministic(t *testing.T) {
	g := DefaultGridModel()
	a := g.DailyVFTP(100, 7)
	b := g.DailyVFTP(100, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("day %d differs", i)
		}
	}
}

func TestGridModelCampaignEraCapacity(t *testing.T) {
	// The HCMD campaign runs roughly weeks 110-136 of the grid model; the
	// paper reports an average available capacity of ~54,947 VFTP there.
	g := DefaultGridModel()
	var sum float64
	for w := 110; w < 136; w++ {
		sum += g.VFTPAt(float64(w))
	}
	avg := sum / 26
	if avg < 45000 || avg > 65000 {
		t.Fatalf("campaign-era capacity %v, want ≈ 55,000", avg)
	}
}

func TestNewHostPanics(t *testing.T) {
	engine := sim.NewEngine()
	srv := makeServer(t, engine, 1, 1)
	cfg := DefaultHostConfig()
	cfg.MeanSpeedDown = 0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newKernel(engine, srv, cfg, 1)
}

// BenchmarkKernelMonth is the host layer's micro-bench: a 100-host
// kernel working one simulated month against a stocked server.
func BenchmarkKernelMonth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		engine := sim.NewEngine()
		srv := makeServer(b, engine, 50000, 3600)
		k := newKernel(engine, srv, DefaultHostConfig(), 1)
		k.SetTarget(100)
		k.RunUntil(4 * sim.Week)
	}
}

func TestBOINCAccountingReportsLess(t *testing.T) {
	// Same device, same work: the BOINC agent reports CPU time (hardware
	// factor only), the UD agent reports wall time (throttle + priority
	// included). §8 of the paper.
	run := func(mode AccountingMode) float64 {
		engine := sim.NewEngine()
		srv := makeServer(t, engine, 3, 1000)
		cfg := DefaultHostConfig()
		cfg.AbandonProb = 0
		cfg.ErrorProb = 0
		cfg.Accounting = mode
		k := newKernel(engine, srv, cfg, 77)
		k.SetTarget(1)
		k.RunUntil(26 * sim.Week)
		if srv.Stats.Completed != 3 {
			t.Fatalf("mode %v: completed %d", mode, srv.Stats.Completed)
		}
		return srv.Stats.CPUSeconds
	}
	ud := run(UDWallClock)
	boinc := run(BOINCCPUTime)
	if boinc >= ud {
		t.Fatalf("BOINC accounting (%v) should report less than UD (%v)", boinc, ud)
	}
	// The ratio is the throttle × priority share of the speed-down.
	ratio := ud / boinc
	want := UDThrottleFactor * PriorityFactor
	if math.Abs(ratio-want)/want > 0.01 {
		t.Fatalf("accounting ratio %v, want %v", ratio, want)
	}
}

func TestBOINCAccountingSameWallTime(t *testing.T) {
	// Accounting must not change physics: completion takes the same wall
	// time under both modes.
	run := func(mode AccountingMode) float64 {
		engine := sim.NewEngine()
		srv := makeServer(t, engine, 1, 1000)
		cfg := DefaultHostConfig()
		cfg.AbandonProb = 0
		cfg.ErrorProb = 0
		cfg.Accounting = mode
		done := -1.0
		srv.OnComplete = func(*wcg.WUState) { done = engine.Now() }
		k := newKernel(engine, srv, cfg, 78)
		k.SetTarget(1)
		k.RunUntil(26 * sim.Week)
		return done
	}
	if ud, boinc := run(UDWallClock), run(BOINCCPUTime); ud != boinc {
		t.Fatalf("wall completion differs: %v vs %v", ud, boinc)
	}
}

func TestHardwareTrendNewerHostsFaster(t *testing.T) {
	engine := sim.NewEngine()
	srv := makeServer(t, engine, 10, 100)
	cfg := DefaultHostConfig()
	cfg.HardwareTrendPerWeek = 0.01
	// Average speed-down of a cohort joining now vs two years later.
	const n = 2000
	k := newKernel(engine, srv, cfg, 5)
	k.SetTarget(n)
	k.SetTarget(0) // the early cohort leaves; the late one joins at week 104
	k.RunUntil(104 * sim.Week)
	k.SetTarget(n)
	var early, late float64
	for i := 0; i < n; i++ {
		early += k.speedDown[i]
		late += k.speedDown[n+i]
	}
	if late >= early {
		t.Fatalf("later cohort not faster: %v vs %v", late/n, early/n)
	}
	// Two years at 1%/week ⇒ ≈ ×1/2.04.
	ratio := early / late
	if ratio < 1.7 || ratio > 2.4 {
		t.Fatalf("trend ratio %v, want ≈ 2", ratio)
	}
}

func TestHardwareFloor(t *testing.T) {
	engine := sim.NewEngine()
	srv := makeServer(t, engine, 1, 1)
	k := newKernel(engine, srv, DefaultHostConfig(), 9)
	k.SetTarget(5000)
	for i, hw := range k.hardware {
		if hw < 1 {
			t.Fatalf("host %d hardware factor %v < 1", i, hw)
		}
		if hw > k.speedDown[i]+1e-9 {
			t.Fatalf("host %d hardware %v exceeds total speed-down %v", i, hw, k.speedDown[i])
		}
	}
}

func TestWorkBufferCompletesEverything(t *testing.T) {
	engine := sim.NewEngine()
	srv := makeServer(t, engine, 20, 1000)
	cfg := DefaultHostConfig()
	cfg.AbandonProb = 0
	cfg.ErrorProb = 0
	cfg.WorkBuffer = 5
	k := newKernel(engine, srv, cfg, 21)
	k.SetTarget(1)
	k.RunUntil(52 * sim.Week)
	if srv.Stats.Completed != 20 {
		t.Fatalf("completed %d of 20 with a work buffer", srv.Stats.Completed)
	}
	if k.done[0] != 20 {
		t.Fatalf("host done = %d", k.done[0])
	}
}

func TestWorkBufferAgesTasksTowardDeadline(t *testing.T) {
	// A deep buffer on a slow host makes cached tasks miss the deadline —
	// the turnaround cost of BOINC's connect-interval knob.
	run := func(buffer int) int64 {
		engine := sim.NewEngine()
		srv := wcg.NewServer(engine, wcg.Config{
			InitialQuorum: 1, SteadyQuorum: 1, Deadline: 2 * sim.Day,
		})
		for i := 0; i < 40; i++ {
			srv.AddWorkunit(workunit.Workunit{ID: int64(i), ISepLo: 1, ISepHi: 1, RefSeconds: 6 * sim.Hour}, 0)
		}
		cfg := DefaultHostConfig()
		cfg.AbandonProb = 0
		cfg.ErrorProb = 0
		cfg.WorkBuffer = buffer
		k := newKernel(engine, srv, cfg, 31)
		k.SetTarget(1)
		k.RunUntil(30 * sim.Day)
		return srv.Stats.TimedOut
	}
	shallow := run(1)
	deep := run(20)
	if deep <= shallow {
		t.Fatalf("deep buffer should time out more: %d vs %d", deep, shallow)
	}
}

func TestWorkBufferStaysBounded(t *testing.T) {
	// Each host's cache is a fixed WorkBuffer-slot window of one flat slab:
	// refills must stay inside it however many tasks pass through.
	engine := sim.NewEngine()
	srv := makeServer(t, engine, 500, 100)
	cfg := DefaultHostConfig()
	cfg.AbandonProb = 0
	cfg.ErrorProb = 0
	cfg.WorkBuffer = 3
	k := newKernel(engine, srv, cfg, 13)
	k.SetTarget(1)
	for w := sim.Time(1); w <= 52; w++ {
		k.RunUntil(w * sim.Week)
		if n := k.cacheLen[0]; n < 0 || int(n) > cfg.WorkBuffer {
			t.Fatalf("week %v: cache holds %d entries (buffer %d)", w, n, cfg.WorkBuffer)
		}
	}
	if srv.Stats.Completed != 500 {
		t.Fatalf("completed %d of 500", srv.Stats.Completed)
	}
	if len(k.cache) != cfg.WorkBuffer {
		t.Fatalf("cache slab grew to %d slots (buffer %d)", len(k.cache), cfg.WorkBuffer)
	}
}

// countingSource is a WorkSource stub that hands out fresh copies of one
// workunit, up to a budget, and counts how often the kernel passes each one
// back, by report or by drop.
type countingSource struct {
	wu              wcg.WUState
	left            int
	passed          map[*wcg.Assignment]int
	reports, drops  int
	unknownPassBack int
}

func (s *countingSource) RequestWorkFor(int) *wcg.Assignment {
	if s.left == 0 {
		return nil
	}
	s.left--
	a := &wcg.Assignment{WU: &s.wu}
	s.passed[a] = 0
	return a
}

func (s *countingSource) CompleteFrom(a *wcg.Assignment, _ wcg.Outcome, _ float64, _ int) {
	s.reports++
	s.passBack(a)
}

func (s *countingSource) Drop(a *wcg.Assignment) {
	s.drops++
	s.passBack(a)
}

func (s *countingSource) passBack(a *wcg.Assignment) {
	if _, ok := s.passed[a]; !ok {
		s.unknownPassBack++
		return
	}
	s.passed[a]++
}

func (s *countingSource) DeadlineFor(*wcg.Assignment) float64 { return 2 * sim.Day }

// TestEveryCopyPassedBackOnce: every copy the kernel fetches reaches its
// source again exactly once, reported or dropped, on a fleet with a
// three-copy work buffer, abandonment with and without late returns, and a
// target that shrinks in two steps to zero, so stopped hosts hold cached
// copies they will never run.
func TestEveryCopyPassedBackOnce(t *testing.T) {
	engine := sim.NewEngine()
	src := &countingSource{wu: wcg.WUState{RefSeconds: 3 * sim.Hour}, left: 20000, passed: map[*wcg.Assignment]int{}}
	cfg := DefaultHostConfig()
	cfg.WorkBuffer = 3
	cfg.AbandonProb = 0.2
	cfg.LateReturnProb = 0.5
	k := newKernel(engine, src, cfg, 17)
	k.SetTarget(60)
	k.RunUntil(5 * sim.Day)
	k.SetTarget(25)
	k.RunUntil(10 * sim.Day)
	k.SetTarget(0)
	k.RunUntil(60 * sim.Day)
	if engine.Pending() != 0 {
		t.Fatalf("%d events still pending", engine.Pending())
	}
	if src.left == 0 || src.reports == 0 || src.drops == 0 || src.unknownPassBack != 0 {
		t.Fatalf("budget left %d, %d reports, %d drops, %d copies passed back that were never issued",
			src.left, src.reports, src.drops, src.unknownPassBack)
	}
	bad := 0
	for _, n := range src.passed {
		if n != 1 {
			bad++
		}
	}
	if bad != 0 {
		t.Fatalf("%d of %d copies passed back other than once (%d reports, %d drops)",
			bad, len(src.passed), src.reports, src.drops)
	}
}

func TestWorkBufferDefaultUnchanged(t *testing.T) {
	// Buffer 0/1 must behave exactly like the original fetch-one loop.
	run := func(buffer int) int64 {
		engine := sim.NewEngine()
		srv := makeServer(t, engine, 10, 500)
		cfg := DefaultHostConfig()
		cfg.WorkBuffer = buffer
		k := newKernel(engine, srv, cfg, 8)
		k.SetTarget(1)
		k.RunUntil(8 * sim.Week)
		return srv.Stats.Received
	}
	if run(0) != run(1) {
		t.Fatal("buffer 0 and 1 should be identical")
	}
}

// TestHostConfigEqualSeesEveryField: a fork refuses a host-model change by
// Equal, so a change to any one field, or to one cohort, must make two
// models unequal, a field added after Equal was written included.
func TestHostConfigEqualSeesEveryField(t *testing.T) {
	base := DefaultHostConfig()
	base.Profiles = SaboteurProfiles(0.05, 0.01, 0.3)
	same := base
	same.Profiles = slices.Clone(base.Profiles)
	if !same.Equal(&base) {
		t.Fatal("a copy with cloned cohorts is not Equal to its source")
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		c := base
		c.Profiles = slices.Clone(base.Profiles)
		switch f := reflect.ValueOf(&c).Elem().Field(i); f.Kind() {
		case reflect.Float64:
			f.SetFloat(f.Float() + 1)
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Slice:
			c.Profiles[1].ErrorProb += 0.1
		default:
			t.Fatalf("field %s is a %s: teach this test to change it", typ.Field(i).Name, f.Kind())
		}
		if c.Equal(&base) {
			t.Errorf("Equal misses a change to %s", typ.Field(i).Name)
		}
	}
}
