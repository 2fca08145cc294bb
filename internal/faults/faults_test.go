package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/wcg"
	"repro/internal/workunit"
)

// stubSource is a minimal WorkSource: it hands out whatever assignment it
// holds and counts requests and deliveries, logging each delivery with its
// engine time when eng is set, and every drop, so plane tests need no
// middleware.
type stubSource struct {
	eng       *sim.Engine
	next      *wcg.Assignment
	requests  int
	delivered int
	log       []delivery
	dropped   []*wcg.Assignment
}

// delivery is one result as it reached the stub.
type delivery struct {
	a       *wcg.Assignment
	outcome wcg.Outcome
	cpu     float64
	host    int
	at      sim.Time
}

func (s *stubSource) RequestWorkFor(int) *wcg.Assignment {
	s.requests++
	return s.next
}
func (s *stubSource) CompleteFrom(a *wcg.Assignment, outcome wcg.Outcome, cpu float64, host int) {
	s.delivered++
	if s.eng != nil {
		s.log = append(s.log, delivery{a, outcome, cpu, host, s.eng.Now()})
	}
}
func (s *stubSource) DeadlineFor(*wcg.Assignment) float64 { return 0 }
func (s *stubSource) Drop(a *wcg.Assignment)              { s.dropped = append(s.dropped, a) }

// TestNormalizedDefaults: the unplanned-outage mean is the one default;
// every other field is kept as given.
func TestNormalizedDefaults(t *testing.T) {
	in := Config{MaintenanceDuration: 4 * sim.Hour, UnplannedPerWeek: 0.5, UploadLossProb: 0.01, NoBackoff: true, Seed: 3}
	want := in
	want.UnplannedMeanSeconds = 12 * sim.Hour
	if c := in.Normalized(); c != want {
		t.Errorf("Normalized() = %+v, want %+v", c, want)
	}
	in.UnplannedMeanSeconds = 6 * sim.Hour
	if c := in.Normalized(); c != in {
		t.Errorf("an explicit unplanned mean moved: %+v", c)
	}
}

func TestNormalizedPanics(t *testing.T) {
	bad := []Config{
		{MaintenanceDuration: -1},
		{MaintenanceDuration: maintenanceEvery}, // the window must fit its weekly period
		{UnplannedPerWeek: -0.1},
		{UnplannedPerWeek: 1, UnplannedMeanSeconds: -1},
		{UploadLossProb: 1.0},
		{UploadLossProb: -0.1},
		{ChurnPerWeek: 1.5},
		{ChurnPerWeek: -0.1},
	}
	for i, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d (%+v) did not panic", i, c)
				}
			}()
			c.Normalized()
		}()
	}
}

// TestNormalizedRejectsNonFinite: every float field rejects NaN and ±Inf.
// NaN used to pass each range check and +Inf the one-sided ones; an
// infinite UnplannedPerWeek then hung windows (a zero mean gap never
// advances the outage walk). The runaway-cadence case bounds the
// materialized schedule at one outage start per minute.
func TestNormalizedRejectsNonFinite(t *testing.T) {
	var bad []Config
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := 0; i < 5; i++ {
			c := Config{MaintenanceDuration: 4 * sim.Hour, UnplannedPerWeek: 1, UploadLossProb: 0.1, ChurnPerWeek: 0.1}
			fields := []*float64{&c.MaintenanceDuration, &c.UnplannedPerWeek, &c.UnplannedMeanSeconds,
				&c.UploadLossProb, &c.ChurnPerWeek}
			*fields[i] = v
			bad = append(bad, c)
		}
	}
	bad = append(bad, Config{UnplannedPerWeek: maxOutagesPerWeek + 1})
	for i, c := range bad {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "faults:") {
					t.Errorf("config %d (%+v) was not rejected", i, c)
				}
			}()
			c.Normalized()
		}()
	}
	// The bounds themselves are accepted.
	Config{UnplannedPerWeek: maxOutagesPerWeek}.Normalized()
	Config{MaintenanceDuration: math.Nextafter(maintenanceEvery, 0)}.Normalized()
}

func TestEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil config reports enabled")
	}
	if (&Config{NoBackoff: true, Seed: 3}).Enabled() {
		t.Error("knob-only config reports enabled")
	}
	for _, c := range []Config{
		{MaintenanceDuration: 4 * sim.Hour},
		{UnplannedPerWeek: 0.1},
		{UploadLossProb: 0.01},
		{ChurnPerWeek: 0.05},
	} {
		if !c.Enabled() {
			t.Errorf("config %+v reports disabled", c)
		}
	}
}

func TestWindowsDeterministicAndSorted(t *testing.T) {
	cfg := Config{
		MaintenanceDuration:  4 * sim.Hour,
		UnplannedPerWeek:     0.5,
		UnplannedMeanSeconds: 6 * sim.Hour,
	}.Normalized()
	horizon := 20 * sim.Week
	a := windows(&cfg, 42, horizon)
	b := windows(&cfg, 42, horizon)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (cfg, seed, horizon) produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("no windows materialized")
	}
	planned := 0
	for i, w := range a {
		if w.End <= w.Start {
			t.Fatalf("window %d empty: %+v", i, w)
		}
		if i > 0 && w.Start <= a[i-1].End {
			t.Fatalf("windows %d/%d not disjoint after merge: %+v %+v", i-1, i, a[i-1], w)
		}
		if w.Planned {
			planned++
		}
	}
	if planned == 0 {
		t.Error("no planned maintenance windows in a maintenance schedule")
	}
	c := windows(&cfg, 43, horizon)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical unplanned schedules")
	}
}

// TestWindowsMergePlannedness: a maintenance window that an unplanned
// outage overlaps or touches merges with it and loses its Planned flag,
// because an unplanned overrun makes the announced end a lie; a
// maintenance window nothing reaches keeps its announced bounds.
func TestWindowsMergePlannedness(t *testing.T) {
	cfg := Config{MaintenanceDuration: 4 * sim.Hour, UnplannedPerWeek: 3, UnplannedMeanSeconds: 12 * sim.Hour}
	planned, overrun := 0, 0
	for _, w := range windows(&cfg, 5, 20*sim.Week) {
		// The maintenance windows this merged window covers.
		var covered []window
		for at := maintenanceOffset; at <= w.End; at += maintenanceEvery {
			if m := (window{Start: at, End: at + cfg.MaintenanceDuration}); m.End >= w.Start {
				covered = append(covered, m)
			}
		}
		exact := len(covered) == 1 && covered[0].Start == w.Start && covered[0].End == w.End
		switch {
		case w.Planned && !exact:
			t.Fatalf("window %+v is planned but is not one maintenance window (covers %v)", w, covered)
		case w.Planned:
			planned++
		case len(covered) > 0:
			overrun++
		}
	}
	if planned == 0 || overrun == 0 {
		t.Errorf("%d planned and %d merged maintenance windows, want both", planned, overrun)
	}
}

func TestPlannedDelaySleepsToWindowEnd(t *testing.T) {
	cfg := Config{MaintenanceDuration: 4 * sim.Hour}.Normalized()
	eng := sim.NewEngine()
	p := NewPlane(eng, &stubSource{}, cfg, 99, 2*sim.Week)
	eng.AdvanceTo(maintenanceOffset + sim.Hour) // inside the first window, 3h before its end
	idle := 10 * sim.Minute
	for host := 0; host < 50; host++ {
		d := p.FetchRetryDelay(host, idle)
		sleep := d - (maintenanceOffset + cfg.MaintenanceDuration - eng.Now())
		if sleep < 0 || sleep >= reconnectSmear {
			t.Fatalf("host %d: planned-window delay %v not in [window-end, +smear)", host, d)
		}
	}
	// Outside any window the flat idle retry stands.
	eng.AdvanceTo(maintenanceOffset + 5*sim.Hour)
	if d := p.FetchRetryDelay(0, idle); d != idle {
		t.Errorf("outside outage: delay %v != idleRetry %v", d, idle)
	}
}

func TestUnplannedBackoffGrowsAndCaps(t *testing.T) {
	// One unplanned window, entered directly: successive probes from the
	// same host must grow exponentially (with ±50% jitter) up to the cap.
	cfg := Config{UnplannedPerWeek: 1e-9}.Normalized() // plane needs wins non-empty
	eng := sim.NewEngine()
	p := NewPlane(eng, &stubSource{}, cfg, 7, sim.Week)
	p.wins = []window{{Start: 0, End: 30 * sim.Day}} // replace with a fixed unplanned window
	p.winIdx = 0
	prevMax := 0.0
	for n := 0; n < 24; n++ {
		d := p.FetchRetryDelay(3, sim.Minute)
		ideal := backoffBase * math.Pow(2, float64(n))
		if ideal > backoffCap {
			ideal = backoffCap
		}
		if d < 0.5*ideal || d >= 1.5*ideal {
			t.Fatalf("probe %d: delay %v outside jitter band of %v", n, d, ideal)
		}
		if d > prevMax {
			prevMax = d
		}
	}
	if prevMax > 1.5*backoffCap {
		t.Errorf("max backoff %v exceeds jittered cap", prevMax)
	}
	// A different host draws different jitter but the same band.
	if a, b := p.FetchRetryDelay(10, sim.Minute), p.FetchRetryDelay(11, sim.Minute); a == b {
		t.Error("distinct hosts drew identical backoff jitter (suspicious hash)")
	}
}

func TestNoBackoffIsFlat(t *testing.T) {
	cfg := Config{UnplannedPerWeek: 1e-9, NoBackoff: true}.Normalized()
	eng := sim.NewEngine()
	p := NewPlane(eng, &stubSource{}, cfg, 7, sim.Week)
	p.wins = []window{{Start: 0, End: 30 * sim.Day}}
	p.winIdx = 0
	for n := 0; n < 10; n++ {
		if d := p.FetchRetryDelay(5, sim.Minute); d != backoffBase {
			t.Fatalf("probe %d: NoBackoff delay %v != backoffBase %v", n, d, float64(backoffBase))
		}
	}
}

func TestUploadLossRetryAndDrop(t *testing.T) {
	// Deterministic loss draws: with p=0.5 and a seeded hash some uploads
	// are lost and retried, some lose every retry and are dropped; reruns
	// are byte-identical.
	run := func() (Stats, int) {
		cfg := Config{UploadLossProb: 0.5}.Normalized()
		eng := sim.NewEngine()
		src := &stubSource{}
		p := NewPlane(eng, src, cfg, 1234, sim.Week)
		a := &wcg.Assignment{}
		for host := 0; host < 200; host++ {
			p.CompleteFrom(a, wcg.OutcomeValid, 100, host)
		}
		eng.RunUntil(sim.Week) // drain the retry events
		return p.Stats, src.delivered
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 || d1 != d2 {
		t.Fatalf("upload-loss stats not reproducible: %+v/%d vs %+v/%d", s1, d1, s2, d2)
	}
	if s1.LostUploads == 0 || s1.RetriedUploads == 0 || s1.DroppedResults == 0 {
		t.Fatalf("p=0.5 lost, retried or dropped nothing: %+v", s1)
	}
	if d1+int(s1.DroppedResults) != 200 {
		t.Errorf("delivered %d + dropped %d != 200 submissions", d1, s1.DroppedResults)
	}
	// Each loss is re-sent unless it was a result's last retry.
	if s1.LostUploads != s1.RetriedUploads+s1.DroppedResults || s1.RetriedUploads < uploadRetries*s1.DroppedResults {
		t.Errorf("losses %d, re-sends %d, drops %d: a result is dropped only after %d re-sends",
			s1.LostUploads, s1.RetriedUploads, s1.DroppedResults, uploadRetries)
	}
	// Anonymous completions bypass the uplink entirely.
	cfg := Config{UploadLossProb: 0.99}.Normalized()
	eng := sim.NewEngine()
	src := &stubSource{}
	p := NewPlane(eng, src, cfg, 1, sim.Week)
	p.CompleteFrom(&wcg.Assignment{}, wcg.OutcomeValid, 1, -1)
	if src.delivered != 1 || p.Stats.LostUploads != 0 {
		t.Error("host<0 completion went through the uplink model")
	}
}

// TestDroppedUploadDropsItsCopyOnce: a result whose upload loses every
// re-send is given up to the source exactly once, and a delivered result
// never is, so the server can release each copy once.
func TestDroppedUploadDropsItsCopyOnce(t *testing.T) {
	cfg := Config{UploadLossProb: 0.5}.Normalized()
	eng := sim.NewEngine()
	src := &stubSource{eng: eng}
	p := NewPlane(eng, src, cfg, 1234, sim.Week)
	as := make([]wcg.Assignment, 200)
	for host := range as {
		p.CompleteFrom(&as[host], wcg.OutcomeValid, 100, host)
	}
	eng.RunUntil(sim.Week) // drain the retry events
	passed := make(map[*wcg.Assignment]int)
	for _, d := range src.log {
		passed[d.a]++
	}
	for _, a := range src.dropped {
		passed[a]++
	}
	if len(src.dropped) == 0 || int64(len(src.dropped)) != p.Stats.DroppedResults {
		t.Fatalf("%d copies dropped to the source, %d results dropped", len(src.dropped), p.Stats.DroppedResults)
	}
	for i := range as {
		if n := passed[&as[i]]; n != 1 {
			t.Errorf("copy %d passed back to the source %d times, want once", i, n)
		}
	}
}

func TestChurnCountCarry(t *testing.T) {
	cfg := Config{ChurnPerWeek: 0.07}.Normalized()
	p := NewPlane(sim.NewEngine(), &stubSource{}, cfg, 1, sim.Week)
	if !p.ChurnEnabled() {
		t.Fatal("churn config reports disabled")
	}
	// 1000 active hosts at 7%/week over 7 daily ticks = 70 departures,
	// accumulated exactly by the fractional carry.
	total := 0
	for day := 0; day < 7; day++ {
		total += p.ChurnCount(1000)
	}
	if total != 70 {
		t.Errorf("weekly churn = %d, want 70", total)
	}
	if p.Stats.Departures != 70 {
		t.Errorf("Stats.Departures = %d, want 70", p.Stats.Departures)
	}
	// The count never exceeds the active fleet.
	p2 := NewPlane(sim.NewEngine(), &stubSource{}, Config{ChurnPerWeek: 1}.Normalized(), 1, sim.Week)
	for day := 0; day < 14; day++ {
		if n := p2.ChurnCount(2); n > 2 {
			t.Fatalf("churn count %d exceeds active fleet 2", n)
		}
	}
}

func TestOutageHooksAndRecoveryLag(t *testing.T) {
	const off = maintenanceOffset
	cfg := Config{MaintenanceDuration: sim.Hour}.Normalized()
	eng := sim.NewEngine()
	src := &stubSource{next: nil} // the server "refuses" by returning nil
	p := NewPlane(eng, src, cfg, 11, 2*sim.Week)
	var outages, recoveries int
	var lastLag float64
	p.OnOutage = func(at sim.Time, planned bool) {
		outages++
		if !planned {
			t.Error("maintenance outage reported as unplanned")
		}
	}
	p.OnRecovery = func(at sim.Time, lag float64) { recoveries++; lastLag = lag }

	eng.AdvanceTo(off + sim.Minute) // inside the window
	p.RequestWorkFor(0)
	p.RequestWorkFor(0)
	if outages != 1 {
		t.Fatalf("OnOutage fired %d times inside one window", outages)
	}
	// After the window: a refused fetch is not a recovery, a dispatch is.
	eng.AdvanceTo(off + sim.Hour + 30*sim.Minute)
	p.RequestWorkFor(0)
	if recoveries != 0 {
		t.Fatal("recovery recorded on a nil dispatch")
	}
	src.next = &wcg.Assignment{}
	eng.AdvanceTo(off + 2*sim.Hour)
	p.RequestWorkFor(0)
	if recoveries != 1 {
		t.Fatalf("recoveries = %d after first real dispatch", recoveries)
	}
	if want := sim.Hour; lastLag != want {
		t.Errorf("recovery lag = %v, want %v", lastLag, want)
	}
	if p.Stats.Recoveries != 1 || p.Stats.RecoveryLagMax != lastLag {
		t.Errorf("stats not updated: %+v", p.Stats)
	}
}

// TestOutageGateAndSpool pins the plane as the one owner of the outage
// schedule, with a counting stub in place of the server. Inside the
// one-hour maintenance window [off, end) a fetch never reaches the server,
// and a result, an upload retry's included, reaches it only at the
// window's end, in arrival order, also after the spool has crossed a
// snapshot.
func TestOutageGateAndSpool(t *testing.T) {
	const seed = 11
	const off, end = maintenanceOffset, maintenanceOffset + sim.Hour
	maintenance := Config{MaintenanceDuration: sim.Hour}
	newPlane := func(cfg Config) (*sim.Engine, *stubSource, *Plane) {
		eng := sim.NewEngine()
		src := &stubSource{eng: eng, next: &wcg.Assignment{}}
		return eng, src, NewPlane(eng, src, cfg.Normalized(), seed, sim.Week)
	}
	// spoolThree completes three assignments a minute apart inside the
	// window, each with its own outcome, cpu and host.
	spoolThree := func(eng *sim.Engine, p *Plane, as []*wcg.Assignment) {
		for i, a := range as {
			eng.AdvanceTo(off + float64(i+1)*sim.Minute)
			p.CompleteFrom(a, wcg.Outcome(i%2), float64(10+i), i)
		}
	}
	// drainedInOrder checks that log holds exactly as, delivered at the
	// window's end in arrival order.
	drainedInOrder := func(t *testing.T, log []delivery, as []*wcg.Assignment) {
		t.Helper()
		if len(log) != len(as) {
			t.Fatalf("%d results delivered, want %d", len(log), len(as))
		}
		for i, d := range log {
			if d.a != as[i] || d.outcome != wcg.Outcome(i%2) || d.cpu != float64(10+i) || d.host != i || d.at != end {
				t.Errorf("delivery %d = %+v, want result %d at the window's end", i, d, i)
			}
		}
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"fetches are refused without reaching the server", func(t *testing.T) {
			eng, src, p := newPlane(maintenance)
			eng.AdvanceTo(off + sim.Minute)
			for i := 0; i < 3; i++ {
				if p.RequestWorkFor(0) != nil {
					t.Fatal("fetch dispatched inside the window")
				}
			}
			if src.requests != 0 || p.Stats.Refused != 3 {
				t.Fatalf("inside the window: %d requests reached the server, %d refusals counted; want 0 and 3",
					src.requests, p.Stats.Refused)
			}
			eng.AdvanceTo(end)
			if p.RequestWorkFor(0) == nil || src.requests != 1 || p.Stats.Refused != 3 {
				t.Errorf("at the window's end: %d requests, %d refusals; want the fetch delegated", src.requests, p.Stats.Refused)
			}
		}},
		{"results are spooled to the window's end", func(t *testing.T) {
			eng, src, p := newPlane(maintenance)
			as := []*wcg.Assignment{{}, {}, {}}
			spoolThree(eng, p, as)
			if eng.Pending() != 1 {
				t.Fatalf("%d events pending, want the one spool drain", eng.Pending())
			}
			eng.RunUntil(end - sim.Minute)
			if src.delivered != 0 || p.Stats.Deferred != 3 {
				t.Fatalf("before the window's end: %d delivered, %d deferred; want 0 and 3", src.delivered, p.Stats.Deferred)
			}
			eng.RunUntil(end)
			drainedInOrder(t, src.log, as)
		}},
		{"an upload retry landing in the window is spooled", func(t *testing.T) {
			cfg := maintenance
			cfg.UploadLossProb = 0.5
			eng, src, p := newPlane(cfg)
			host := 0 // the first host whose first upload is lost and whose retry is not
			for !(frac(seed^domLoss, uint64(host), 0) < 0.5 && frac(seed^domLoss, uint64(host), 1) >= 0.5) {
				host++
			}
			a := &wcg.Assignment{}
			eng.AdvanceTo(off - 15*sim.Minute) // the retry fires 15 to 45 min later, in the window
			p.CompleteFrom(a, wcg.OutcomeValid, 1, host)
			eng.RunUntil(off + 30*sim.Minute)
			if p.Stats.LostUploads != 1 || p.Stats.RetriedUploads != 1 || eng.Pending() != 1 {
				t.Fatalf("retry not fired once inside the window: %+v, %d events pending", p.Stats, eng.Pending())
			}
			if src.delivered != 0 || p.Stats.Deferred != 1 {
				t.Fatalf("retried result delivered inside the window (%d delivered, %d deferred)", src.delivered, p.Stats.Deferred)
			}
			eng.RunUntil(end)
			if len(src.log) != 1 || src.log[0].a != a || src.log[0].at != end {
				t.Errorf("retried result delivered as %+v, want once at the window's end", src.log)
			}
		}},
		{"an adopter drains the same spool", func(t *testing.T) {
			// Portable spool entries name assignments by allocation index,
			// so they come from a server.
			srv := wcg.NewServer(sim.NewEngine(), wcg.DefaultConfig())
			as := make([]*wcg.Assignment, 3)
			for i := range as {
				srv.AddWorkunit(workunit.Workunit{RefSeconds: 1}, 0)
				as[i] = srv.RequestWork()
			}
			eng, src, p := newPlane(maintenance)
			spoolThree(eng, p, as)
			ps := p.ExportPortable()
			evs, err := eng.ExportEvents()
			if err != nil {
				t.Fatal(err)
			}
			eng2, src2, p2 := newPlane(maintenance)
			spoolThree(eng2, p2, []*wcg.Assignment{{}, {}, {}}) // a dirty adopter
			eng2.Reset()
			p2.Reset(eng2, src2, maintenance.Normalized(), seed, sim.Week)
			src2.delivered, src2.log = 0, nil
			p2.AdoptPortable(ps, srv.AssignmentAt)
			eng2.AdoptState(eng.ExportState())
			for _, pe := range evs { // the spool drain, which the plane handles
				eng2.AdoptEvent(pe.At, pe.Seq, pe.Call, p2, nil)
			}
			eng.RunUntil(end)
			eng2.RunUntil(end)
			drainedInOrder(t, src.log, as)
			drainedInOrder(t, src2.log, as)
			if p2.Stats != p.Stats {
				t.Errorf("adopter stats %+v, source %+v", p2.Stats, p.Stats)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

func TestBuildReportClipsToHorizon(t *testing.T) {
	cfg := Config{MaintenanceDuration: 4 * sim.Hour}.Normalized()
	horizon := maintenanceOffset + 2*sim.Hour // mid-window
	p := NewPlane(sim.NewEngine(), &stubSource{}, cfg, 3, horizon)
	r := p.BuildReport()
	if r.Outages != 1 || r.PlannedOutages != 1 {
		t.Fatalf("report windows: %+v", r)
	}
	if r.DowntimeSeconds != 2*sim.Hour {
		t.Errorf("downtime %v not clipped to horizon (want %v)", r.DowntimeSeconds, 2*sim.Hour)
	}
}

func TestEffectiveSeed(t *testing.T) {
	c := &Config{}
	if c.EffectiveSeed(1) == 1 {
		t.Error("derived fault seed equals the run seed (stream collision)")
	}
	if c.EffectiveSeed(1) == c.EffectiveSeed(2) {
		t.Error("derived fault seed ignores the run seed")
	}
	c.Seed = 77
	if c.EffectiveSeed(1) != 77 {
		t.Error("explicit Seed not honored")
	}
}

func TestResetReusesPlane(t *testing.T) {
	cfg := Config{UploadLossProb: 0.5}.Normalized()
	eng := sim.NewEngine()
	src := &stubSource{}
	p := NewPlane(eng, src, cfg, 9, sim.Week)
	for host := 0; host < 64; host++ {
		p.CompleteFrom(&wcg.Assignment{}, wcg.OutcomeValid, 1, host)
	}
	eng.RunUntil(sim.Week)
	first := p.Stats

	eng2 := sim.NewEngine()
	src2 := &stubSource{}
	p.OnOutage = func(sim.Time, bool) {}
	p.Reset(eng2, src2, cfg, 9, sim.Week)
	if p.Stats != (Stats{}) || p.OnOutage != nil {
		t.Fatal("Reset did not clear stats/hooks")
	}
	for host := 0; host < 64; host++ {
		p.CompleteFrom(&wcg.Assignment{}, wcg.OutcomeValid, 1, host)
	}
	eng2.RunUntil(sim.Week)
	if p.Stats != first {
		t.Errorf("pooled plane diverged after Reset: %+v vs %+v", p.Stats, first)
	}
}
