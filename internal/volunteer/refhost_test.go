package volunteer

import (
	"fmt"
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
	server WorkSource // the fleet's one source
	mux    *Mux       // the mux behind server, armed on spawn; nil single-project
	cfg    HostConfig
	r      *rng.Source
	hosts  []*refHost
	active int
	late   int // abandoned tasks returned late
	flat   int // retries scheduled at the flat IdleRetry
}

type refHost struct {
	id                        int
	src                       rng.Source
	speedDown, hardware       float64
	errorProb, abandonProb    float64
	phase, online             float64
	saboteur, turned, diurnal bool
	stopped, busy             bool
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
		a := f.server.RequestWorkFor(h.id)
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
		if d == f.cfg.IdleRetry {
			f.flat++
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
			f.eng.ScheduleAfter(f.server.DeadlineFor(a)+h.src.Float64()*f.cfg.LateDelayMax, func() {
				f.late++
				h.cpuSpent += reported
				f.complete(a, h.turned, reported, h)
			})
		}
		h.busy = false
		f.flat++
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
	f.server.CompleteFrom(a, oc, reported, h.id)
}

// retryStub is a RetryAdvisor over a server: a deterministic per-host
// stretch of the idle retry, standing in for the fault plane's backoff.
type retryStub struct{ *wcg.Server }

func (s retryStub) FetchRetryDelay(host int, idle float64) float64 {
	return idle * float64(1+host%3) / 2
}

// reportCounter counts each host's reports on their way to the fleet's
// work source, and passes on the source's retry advice (the flat delay
// when it gives none).
type reportCounter struct {
	WorkSource
	reports []int32 // by host
}

func (c *reportCounter) CompleteFrom(a *wcg.Assignment, outcome wcg.Outcome, cpuSeconds float64, host int) {
	for len(c.reports) <= host {
		c.reports = append(c.reports, 0)
	}
	c.reports[host]++
	c.WorkSource.CompleteFrom(a, outcome, cpuSeconds, host)
}

func (c *reportCounter) FetchRetryDelay(host int, idle float64) float64 {
	if ra, ok := c.WorkSource.(RetryAdvisor); ok {
		return ra.FetchRetryDelay(host, idle)
	}
	return idle
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
		{Weight: 0.6, ErrorProb: 0.02, AbandonProb: -1},
		{Weight: 0.15, ErrorProb: 0.05, AbandonProb: -1, Saboteur: true},
		{Weight: 0.25, ErrorProb: 0.03, AbandonProb: 0.2, Diurnal: true, OnlineHours: 9},
	}
	return cfg
}

// diffServer builds a two-copy, adaptively validating server stocked with
// mixed-size work, under the given deadline (0 = the default).
func diffServer(engine *sim.Engine, wus int, salt int, deadline float64) *wcg.Server {
	cfg := wcg.DefaultConfig()
	cfg.Validator = wcg.AdaptiveValidator{Streak: 4}
	if deadline > 0 {
		cfg.Deadline = deadline
	}
	srv := wcg.NewServer(engine, cfg)
	for i := 0; i < wus; i++ {
		ref := 3600 * (1 + float64((i*7+salt)%5))
		srv.AddWorkunit(workunit.Workunit{ID: int64(i), ISepLo: 1, ISepHi: 10, RefSeconds: ref}, 0)
	}
	return srv
}

// fleetTarget sets the active-host target at the start of a sim week.
type fleetTarget struct{ week, hosts int }

// fleetTargets is the differential schedule: the active-host target set at
// weekly ticks (grow, shrink, regrow, shrink).
var fleetTargets = []fleetTarget{{0, 60}, {2, 25}, {3, 90}, {5, 40}}

type fleetOutcome struct {
	stats            []wcg.Stats
	executed         uint64
	maxPending       int
	reports          []int32 // by host, counted by the reportCounter
	cpuSpent, speeds []float64
	turned           []bool
	late             int    // the reference's late returns; the kernel leaves it 0
	flat             int    // the reference's flat idle retries; the kernel leaves it 0
	calendarLate     int    // late returns the kernel's calendar was seen holding
	ringSeen         int    // idle-retry ring entries seen, summed over the checkpoints
	ringFault        string // the first checkpoint's ring fault, if any
}

// fleetUnder binds a fleet implementation to an engine and its one work
// source src (wrapping the mux m on a co-run, whose port seeds the fleet
// arms) and returns its SetTarget, run loop and per-host readout.
type fleetUnder func(e *sim.Engine, src WorkSource, m *Mux) (setTarget func(int), run func(sim.Time), read func(*fleetOutcome))

// runDiff drives one fleet through fleetTargets for eight weeks, against
// servers with the given deadline (0 = the default).
func runDiff(muxed bool, deadline float64, mkFleet fleetUnder) fleetOutcome {
	e := sim.NewEngine()
	var servers []*wcg.Server
	var src WorkSource
	var m *Mux
	if muxed {
		m = NewMux()
		for p, share := range []float64{1, 2} {
			s := diffServer(e, 1500, p, deadline)
			m.Attach(s, share)
			servers = append(servers, s)
		}
		src = m
	} else {
		s := diffServer(e, 3000, 0, deadline)
		servers = append(servers, s)
		src = retryStub{s}
	}
	return runFleet(e, servers, src, m, fleetTargets, 8*sim.Week, mkFleet)
}

// runFleet drives one fleet bound to src (over servers, through the mux m
// on a co-run) through targets until end and reads its outcome.
func runFleet(e *sim.Engine, servers []*wcg.Server, src WorkSource, m *Mux, targets []fleetTarget, end sim.Time, mkFleet fleetUnder) fleetOutcome {
	rc := &reportCounter{WorkSource: src}
	setTarget, run, read := mkFleet(e, rc, m)
	for _, ft := range targets {
		e.Schedule(sim.Time(ft.week)*sim.Week, func() { setTarget(ft.hosts) })
	}
	run(end)
	var out fleetOutcome
	for _, s := range servers {
		out.stats = append(out.stats, s.Stats)
	}
	n := e.Counters()
	out.executed, out.maxPending = n.Executed, n.MaxPending
	read(&out)
	out.reports = rc.reports
	for len(out.reports) < len(out.speeds) {
		out.reports = append(out.reports, 0)
	}
	return out
}

func refFleetUnder(cfg HostConfig, seed uint64) fleetUnder {
	return func(e *sim.Engine, src WorkSource, m *Mux) (func(int), func(sim.Time), func(*fleetOutcome)) {
		f := &refFleet{eng: e, server: src, mux: m, cfg: cfg, r: rng.New(seed)}
		read := func(o *fleetOutcome) {
			o.late, o.flat = f.late, f.flat
			for _, h := range f.hosts {
				o.cpuSpent = append(o.cpuSpent, h.cpuSpent)
				o.speeds = append(o.speeds, h.speedDown)
				o.turned = append(o.turned, h.turned)
			}
		}
		return f.SetTarget, e.RunUntil, read
	}
}

func kernelUnder(cfg HostConfig, seed uint64, window float64) fleetUnder {
	return func(e *sim.Engine, src WorkSource, m *Mux) (func(int), func(sim.Time), func(*fleetOutcome)) {
		k := NewShardKernel(e, src, cfg, rng.New(seed), window)
		k.mux = m // src hides the mux it wraps, whose port seeds spawn draws
		calendarLate, ringSeen, ringFault := 0, 0, ""
		// run stops every half hour to look for late returns in the
		// calendar (each waits at least 40 minutes in the late-returns
		// case) and to check the idle-retry ring.
		run := func(end sim.Time) {
			for t := 30 * sim.Minute; t < end; t += 30 * sim.Minute {
				k.RunUntil(t)
				calendarLate += lateInCalendar(k)
				ring := ringEntries(k)
				ringSeen += len(ring)
				if f := ringFaultOf(k, ring); f != "" && ringFault == "" {
					ringFault = fmt.Sprintf("at %v s: %s", t, f)
				}
			}
			k.RunUntil(end)
		}
		read := func(o *fleetOutcome) {
			o.calendarLate, o.ringSeen, o.ringFault = calendarLate, ringSeen, ringFault
			for i := range k.TotalJoined() {
				o.cpuSpent = append(o.cpuSpent, k.cpuSpent[i])
				o.speeds = append(o.speeds, k.speedDown[i])
				o.turned = append(o.turned, k.flags[i]&hfTurned != 0)
			}
		}
		return k.SetTarget, run, read
	}
}

// lateInCalendar counts the late returns in k's calendar: the armed
// buffer's unconsumed rest and every pending window.
func lateInCalendar(k *ShardKernel) int {
	n := 0
	for _, ev := range k.cal.cur[k.cal.cursor:] {
		if ev.kind == evLate {
			n++
		}
	}
	for _, win := range k.cal.wins[k.cal.next:] {
		for ch := win.head; ch != nil; ch = ch.next {
			for _, ev := range ch.ev[:ch.n] {
				if ev.kind == evLate {
					n++
				}
			}
		}
	}
	return n
}

// ringEntries returns the unread entries of k's idle-retry ring in ring
// order.
func ringEntries(k *ShardKernel) []planeEvent {
	var evs []planeEvent
	off := k.cal.ringOff
	for ch := k.cal.ring.head; ch != nil; ch, off = ch.next, 0 {
		evs = append(evs, ch.ev[off:ch.n]...)
	}
	return evs
}

// ringFaultOf describes the first way ring, k's idle-retry ring read by
// ringEntries, breaks the ring's invariants — an entry that is not a
// fetch, keys out of strictly increasing (time, seq) order, a count that
// disagrees with the chunks — or returns "".
func ringFaultOf(k *ShardKernel, ring []planeEvent) string {
	if len(ring) != k.cal.ring.n {
		return fmt.Sprintf("counts %d entries and its chunks hold %d", k.cal.ring.n, len(ring))
	}
	for i, ev := range ring {
		if ev.kind != evFetch {
			return fmt.Sprintf("entry %d (host %d) has kind %d, not a fetch", i, ev.host, ev.kind)
		}
		if i > 0 && planeEventLess(ring[i-1], ev) >= 0 {
			return fmt.Sprintf("entry %d (%v, %d) does not follow (%v, %d)", i, ev.at, ev.seq, ring[i-1].at, ring[i-1].seq)
		}
	}
	return ""
}

// compareFleets fails t unless got, a kernel fleet's outcome, reproduces
// want, the reference's: every server counter, the engine's executed and
// peak-pending counts and every host's reports, CPU seconds, speed-down
// and saboteur turn. The kernel's calendar must never have held a late
// return, nor its ring broken its invariants.
func compareFleets(t *testing.T, name string, got, want fleetOutcome) {
	t.Helper()
	for i := range want.stats {
		if got.stats[i] != want.stats[i] {
			t.Errorf("%s server %d stats:\n got %+v\nwant %+v", name, i, got.stats[i], want.stats[i])
		}
	}
	if got.executed != want.executed || got.maxPending != want.maxPending {
		t.Errorf("%s engine: executed %d/%d, peak pending %d/%d",
			name, got.executed, want.executed, got.maxPending, want.maxPending)
	}
	if got.calendarLate != 0 {
		t.Errorf("%s: the calendar held a late return %d times", name, got.calendarLate)
	}
	if got.ringFault != "" {
		t.Errorf("%s: the idle-retry ring %s", name, got.ringFault)
	}
	if len(got.speeds) != len(want.speeds) {
		t.Fatalf("%s: %d hosts joined, want %d", name, len(got.speeds), len(want.speeds))
	}
	for i := range want.speeds {
		if got.reports[i] != want.reports[i] || got.cpuSpent[i] != want.cpuSpent[i] ||
			got.speeds[i] != want.speeds[i] || got.turned[i] != want.turned[i] {
			t.Fatalf("%s host %d: reports %d/%d cpu %v/%v speed %v/%v turned %v/%v", name, i,
				got.reports[i], want.reports[i], got.cpuSpent[i], want.cpuSpent[i],
				got.speeds[i], want.speeds[i], got.turned[i], want.turned[i])
		}
	}
}

// TestKernelMatchesReferenceFleet is the differential oracle: the kernel
// reproduces the reference fleet's every server counter, engine count and
// per-host outcome (reports, CPU seconds, speed-down, saboteur turn),
// single-project (through a RetryAdvisor) and on a two-project mux. The
// late-returns case brings abandoned tasks back within an hour of a
// 40-minute deadline and runs the kernel at three window widths: at one
// minute, the campaign's floor, every fetch and task-done continuation
// waits in the calendar; at two weeks 97 % of them wait in the engine's
// heap. At every width a late return waits in the heap, its assignment
// riding the heap event's ref, and never in the calendar. Every half hour
// the kernel's idle-retry ring must hold only fetches, in strictly
// increasing (time, seq) order; and a run whose hosts went idle at the
// flat IdleRetry must have put some of those retries on it.
func TestKernelMatchesReferenceFleet(t *testing.T) {
	late := diffFleetConfig()
	late.LateDelayMax = 20 * sim.Minute
	for _, tc := range []struct {
		name     string
		cfg      HostConfig
		deadline float64 // 0 = the server default
		windows  []float64
	}{
		{"default", diffFleetConfig(), 0, []float64{1.5 * sim.Hour}},
		{"late-returns", late, 40 * sim.Minute, []float64{sim.Minute, 1.5 * sim.Hour, 2 * sim.Week}},
	} {
		for _, muxed := range []bool{false, true} {
			want := runDiff(muxed, tc.deadline, refFleetUnder(tc.cfg, 404))
			if s := want.stats[0]; s.Received == 0 || s.Invalid == 0 || s.TimedOut == 0 || want.late == 0 || want.flat == 0 {
				t.Fatalf("%s muxed=%v: reference run too quiet to compare: %d late returns, %d flat idle retries, %+v",
					tc.name, muxed, want.late, want.flat, s)
			}
			for _, w := range tc.windows {
				name := fmt.Sprintf("%s muxed=%v window=%gs", tc.name, muxed, w)
				got := runDiff(muxed, tc.deadline, kernelUnder(tc.cfg, 404, w))
				compareFleets(t, name, got, want)
				if got.ringSeen == 0 {
					t.Errorf("%s: %d flat idle retries, and the ring held none at any checkpoint", name, want.flat)
				}
			}
		}
	}
}
