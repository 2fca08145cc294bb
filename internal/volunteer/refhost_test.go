package volunteer

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wcg"
	"repro/internal/workunit"
)

// refFleet is a deliberately plain reference model of the host fleet: one
// struct per host and one sim.Engine event per host continuation, drawing
// from each host's stream in the order the fetch loop defines (join:
// LogNormal speed-down, cohort, diurnal phase; per task: abandon, late
// return and its delay, error). It plays the role wcg/refserver_test.go
// plays for the server: the differential oracle the ShardKernel's SoA
// columns and window calendars must reproduce bit for bit.
type refFleet struct {
	eng    *sim.Engine
	server WorkSource // nil when mux is set
	mux    *Mux
	cfg    HostConfig
	r      *rng.Source
	hosts  []*refHost
	active int
}

type refHost struct {
	id                        int
	src                       rng.Source
	speedDown, hardware       float64
	errorProb, abandonProb    float64
	phase, online             float64
	saboteur, turned, diurnal bool
	stopped, busy             bool
	done                      int32
	cpuSpent                  float64
	cache                     []*wcg.Assignment
}

// SetTarget spawns hosts or stops the oldest active ones, like the kernel.
func (f *refFleet) SetTarget(n int) {
	for f.active < n {
		f.spawn()
	}
	for i := 0; f.active > n && i < len(f.hosts); i++ {
		if h := f.hosts[i]; !h.stopped {
			h.stopped = true
			f.active--
		}
	}
}

func (f *refFleet) spawn() {
	cfg := &f.cfg
	h := &refHost{id: len(f.hosts), errorProb: cfg.ErrorProb, abandonProb: cfg.AbandonProb}
	rng.NewInto(&h.src, f.r.Uint64())
	if f.mux != nil {
		f.mux.arm(h.id, f.r.Uint64())
	}
	sigma := cfg.SpeedDownSigma
	sd := h.src.LogNormal(math.Log(cfg.MeanSpeedDown)+sigma*sigma/2, sigma)
	if cfg.HardwareTrendPerWeek > 0 {
		weeks := f.eng.Now() / sim.Week
		sd /= 1 + cfg.HardwareTrendPerWeek*weeks
	}
	h.speedDown = max(sd, 1)
	h.hardware = max(h.speedDown/(UDThrottleFactor*PriorityFactor), 1)
	if len(cfg.Profiles) > 0 {
		p := cfg.Profiles[pickProfile(&h.src, cfg.Profiles)]
		h.errorProb, h.saboteur, h.diurnal = p.ErrorProb, p.Saboteur, p.Diurnal
		if p.AbandonProb >= 0 {
			h.abandonProb = p.AbandonProb
		}
		if p.Diurnal {
			h.online = p.OnlineHours * sim.Hour
			if h.online <= 0 {
				h.online = DefaultOnlineHours * sim.Hour
			}
			h.online = min(h.online, sim.Day)
			h.phase = h.src.Float64() * sim.Day
		}
	}
	f.hosts = append(f.hosts, h)
	f.active++
	f.fetch(h)
}

func (f *refFleet) fetch(h *refHost) {
	if h.stopped {
		return
	}
	for len(h.cache) < max(f.cfg.WorkBuffer, 1) {
		var a *wcg.Assignment
		if f.mux != nil {
			a = f.mux.RequestWork(h.id)
		} else {
			a = f.server.RequestWork()
		}
		if a == nil {
			break
		}
		h.cache = append(h.cache, a)
	}
	if len(h.cache) == 0 {
		d := f.cfg.IdleRetry
		if ra, ok := f.server.(RetryAdvisor); ok {
			d = ra.FetchRetryDelay(h.id, d)
		}
		f.eng.ScheduleAfter(d, func() { f.fetch(h) })
		return
	}
	if h.busy {
		return
	}
	a := h.cache[0]
	h.cache = append(h.cache[:0], h.cache[1:]...)
	h.busy = true
	wall := a.WU.RefSeconds * h.speedDown
	reported := wall
	if f.cfg.Accounting == BOINCCPUTime {
		reported = a.WU.RefSeconds * h.hardware
	}
	if h.src.Bernoulli(h.abandonProb) {
		if h.src.Bernoulli(f.cfg.LateReturnProb) {
			f.eng.ScheduleAfter(f.deadlineFor(a)+h.src.Float64()*f.cfg.LateDelayMax, func() {
				h.cpuSpent += reported
				f.complete(a, h.turned, reported, h)
			})
		}
		h.busy = false
		f.eng.ScheduleAfter(f.cfg.IdleRetry, func() { f.fetch(h) })
		return
	}
	invalid := h.turned || h.src.Bernoulli(h.errorProb)
	h.turned = h.turned || (invalid && h.saboteur)
	delay := wall
	if h.diurnal {
		delay = diurnalDelay(f.eng.Now(), wall, h.phase, h.online)
	}
	f.eng.ScheduleAfter(delay, func() {
		h.busy = false
		h.done++
		h.cpuSpent += reported
		f.complete(a, invalid, reported, h)
		f.fetch(h)
	})
}

func (f *refFleet) complete(a *wcg.Assignment, invalid bool, reported float64, h *refHost) {
	oc := wcg.OutcomeValid
	if invalid {
		oc = wcg.OutcomeInvalid
	}
	if f.mux != nil {
		f.mux.CompleteFrom(a, oc, reported, h.id)
	} else {
		f.server.CompleteFrom(a, oc, reported, h.id)
	}
}

func (f *refFleet) deadlineFor(a *wcg.Assignment) float64 {
	if f.mux != nil {
		return f.mux.DeadlineFor(a)
	}
	return f.server.DeadlineFor(a)
}

// retryStub is a RetryAdvisor over a server: a deterministic per-host
// stretch of the idle retry, standing in for the fault plane's backoff.
type retryStub struct{ *wcg.Server }

func (s retryStub) FetchRetryDelay(host int, idle float64) float64 {
	return idle * float64(1+host%3) / 2
}

// diffFleetConfig exercises every host-model path at once: saboteur and
// diurnal cohorts, a three-deep work buffer, BOINC CPU-time accounting,
// frequent abandons with late returns, and the hardware trend.
func diffFleetConfig() HostConfig {
	cfg := DefaultHostConfig()
	cfg.WorkBuffer = 3
	cfg.Accounting = BOINCCPUTime
	cfg.AbandonProb = 0.1
	cfg.HardwareTrendPerWeek = 0.01
	cfg.Profiles = []BehaviorProfile{
		{Name: "faithful", Weight: 0.6, ErrorProb: 0.02, AbandonProb: -1},
		{Name: "saboteur", Weight: 0.15, ErrorProb: 0.05, AbandonProb: -1, Saboteur: true},
		{Name: "diurnal", Weight: 0.25, ErrorProb: 0.03, AbandonProb: 0.2, Diurnal: true, OnlineHours: 9},
	}
	return cfg
}

// diffServer builds a two-copy, adaptively validating server stocked with
// mixed-size work.
func diffServer(engine *sim.Engine, wus int, salt int) *wcg.Server {
	cfg := wcg.DefaultConfig()
	cfg.Validator = wcg.AdaptiveValidator{Streak: 4}
	srv := wcg.NewServer(engine, cfg)
	for i := 0; i < wus; i++ {
		ref := 3600 * (1 + float64((i*7+salt)%5))
		srv.AddWorkunit(workunit.Workunit{ID: int64(i), ISepLo: 1, ISepHi: 10, RefSeconds: ref}, 0)
	}
	return srv
}

// fleetTargets is the differential schedule: the active-host target set at
// weekly ticks (grow, shrink, regrow, shrink).
var fleetTargets = []struct{ week, hosts int }{{0, 60}, {2, 25}, {3, 90}, {5, 40}}

type fleetOutcome struct {
	stats            []wcg.Stats
	executed         uint64
	maxPending       int
	done             []int32
	cpuSpent, speeds []float64
	turned           []bool
}

// fleetUnder binds a fleet implementation to an engine and its work
// source (src, or the mux m) and returns its SetTarget, run loop and
// per-host readout.
type fleetUnder func(e *sim.Engine, src WorkSource, m *Mux) (setTarget func(int), run func(sim.Time), read func(*fleetOutcome))

// runDiff drives one fleet through fleetTargets for eight weeks.
func runDiff(t *testing.T, muxed bool, mkFleet fleetUnder) fleetOutcome {
	t.Helper()
	e := sim.NewEngine()
	var servers []*wcg.Server
	var src WorkSource
	var m *Mux
	if muxed {
		m = NewMux()
		for p, share := range []float64{1, 2} {
			s := diffServer(e, 1500, p)
			m.Attach(s, share)
			servers = append(servers, s)
		}
	} else {
		s := diffServer(e, 3000, 0)
		servers = append(servers, s)
		src = retryStub{s}
	}
	setTarget, run, read := mkFleet(e, src, m)
	for _, ft := range fleetTargets {
		e.Schedule(sim.Time(ft.week)*sim.Week, func() { setTarget(ft.hosts) })
	}
	run(8 * sim.Week)
	var out fleetOutcome
	for _, s := range servers {
		out.stats = append(out.stats, s.Stats)
	}
	out.executed, out.maxPending = e.Executed(), e.MaxPending()
	read(&out)
	return out
}

func refFleetUnder(cfg HostConfig, seed uint64) fleetUnder {
	return func(e *sim.Engine, src WorkSource, m *Mux) (func(int), func(sim.Time), func(*fleetOutcome)) {
		f := &refFleet{eng: e, server: src, mux: m, cfg: cfg, r: rng.New(seed)}
		read := func(o *fleetOutcome) {
			for _, h := range f.hosts {
				o.done = append(o.done, h.done)
				o.cpuSpent = append(o.cpuSpent, h.cpuSpent)
				o.speeds = append(o.speeds, h.speedDown)
				o.turned = append(o.turned, h.turned)
			}
		}
		return f.SetTarget, e.RunUntil, read
	}
}

func kernelUnder(cfg HostConfig, seed uint64) fleetUnder {
	return func(e *sim.Engine, src WorkSource, m *Mux) (func(int), func(sim.Time), func(*fleetOutcome)) {
		k := NewShardKernel(e, src, cfg, rng.New(seed), 1.5*sim.Hour)
		if m != nil {
			k.Multiplex(m)
		}
		read := func(o *fleetOutcome) {
			for i := range k.TotalJoined() {
				o.done = append(o.done, k.done[i])
				o.cpuSpent = append(o.cpuSpent, k.cpuSpent[i])
				o.speeds = append(o.speeds, k.speedDown[i])
				o.turned = append(o.turned, k.flags[i]&hfTurned != 0)
			}
		}
		return k.SetTarget, k.RunUntil, read
	}
}

// TestKernelMatchesReferenceFleet is the differential oracle: the kernel
// reproduces the reference fleet's every server counter, engine count and
// per-host outcome, single-project (through a RetryAdvisor) and on a
// two-project mux.
func TestKernelMatchesReferenceFleet(t *testing.T) {
	cfg := diffFleetConfig()
	for _, muxed := range []bool{false, true} {
		want := runDiff(t, muxed, refFleetUnder(cfg, 404))
		if want.stats[0].Received == 0 || want.stats[0].Invalid == 0 || want.stats[0].TimedOut == 0 {
			t.Fatalf("muxed=%v: reference run too quiet to compare: %+v", muxed, want.stats[0])
		}
		got := runDiff(t, muxed, kernelUnder(cfg, 404))
		for i := range want.stats {
			if got.stats[i] != want.stats[i] {
				t.Errorf("muxed=%v server %d stats:\n got %+v\nwant %+v", muxed, i, got.stats[i], want.stats[i])
			}
		}
		if got.executed != want.executed || got.maxPending != want.maxPending {
			t.Errorf("muxed=%v engine: executed %d/%d, peak pending %d/%d",
				muxed, got.executed, want.executed, got.maxPending, want.maxPending)
		}
		if len(got.done) != len(want.done) {
			t.Fatalf("muxed=%v: %d hosts joined, want %d", muxed, len(got.done), len(want.done))
		}
		for i := range want.done {
			if got.done[i] != want.done[i] || got.cpuSpent[i] != want.cpuSpent[i] ||
				got.speeds[i] != want.speeds[i] || got.turned[i] != want.turned[i] {
				t.Fatalf("muxed=%v host %d: done %d/%d cpu %v/%v speed %v/%v turned %v/%v", muxed, i,
					got.done[i], want.done[i], got.cpuSpent[i], want.cpuSpent[i],
					got.speeds[i], want.speeds[i], got.turned[i], want.turned[i])
			}
		}
	}
}
