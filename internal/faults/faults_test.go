package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/wcg"
)

// stubSource is a minimal WorkSource: it hands out whatever assignment it
// holds and counts deliveries, so plane tests need no middleware.
type stubSource struct {
	next      *wcg.Assignment
	delivered int
}

func (s *stubSource) RequestWork() *wcg.Assignment { return s.next }
func (s *stubSource) CompleteFrom(*wcg.Assignment, wcg.Outcome, float64, int) {
	s.delivered++
}
func (s *stubSource) DeadlineFor(*wcg.Assignment) float64 { return 0 }

func TestNormalizedDefaults(t *testing.T) {
	c := Config{
		MaintenanceEvery: sim.Week,
		UnplannedPerWeek: 0.5,
		UploadLossProb:   0.01,
	}.Normalized()
	if c.MaintenanceOffset != 2*sim.Day+2*sim.Hour {
		t.Errorf("MaintenanceOffset default = %v", c.MaintenanceOffset)
	}
	if c.MaintenanceDuration != 4*sim.Hour {
		t.Errorf("MaintenanceDuration default = %v", c.MaintenanceDuration)
	}
	if c.UnplannedMeanSeconds != 12*sim.Hour {
		t.Errorf("UnplannedMeanSeconds default = %v", c.UnplannedMeanSeconds)
	}
	if c.UploadRetryDelay != 30*sim.Minute {
		t.Errorf("UploadRetryDelay default = %v", c.UploadRetryDelay)
	}
	if c.BackoffBase != 15*sim.Minute || c.BackoffCap != 12*sim.Hour {
		t.Errorf("backoff defaults = %v / %v", c.BackoffBase, c.BackoffCap)
	}
	if c.ReconnectSmear != sim.Hour {
		t.Errorf("ReconnectSmear default = %v", c.ReconnectSmear)
	}
	// The cap never undercuts the base.
	c2 := Config{UploadLossProb: 0.1, BackoffBase: 2 * sim.Hour, BackoffCap: sim.Minute}.Normalized()
	if c2.BackoffCap != c2.BackoffBase {
		t.Errorf("BackoffCap %v not lifted to BackoffBase %v", c2.BackoffCap, c2.BackoffBase)
	}
}

func TestNormalizedPanics(t *testing.T) {
	bad := []Config{
		{MaintenanceEvery: -1},
		{UnplannedPerWeek: -0.1},
		{UploadLossProb: 1.0},
		{UploadLossProb: -0.1},
		{UploadLossProb: 0.1, UploadRetries: -1},
		{ChurnPerWeek: 1.5},
		{ChurnPerWeek: 0.1, BackoffBase: -1},
		{MaintenanceEvery: sim.Hour, MaintenanceDuration: 2 * sim.Hour},
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
// infinite UnplannedPerWeek then hung Windows (a zero mean gap never
// advances the outage walk). The runaway-cadence cases bound the
// materialized schedule at one outage start per minute.
func TestNormalizedRejectsNonFinite(t *testing.T) {
	var bad []Config
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := 0; i < 11; i++ {
			c := Config{MaintenanceEvery: sim.Week, UnplannedPerWeek: 1, UploadLossProb: 0.1, ChurnPerWeek: 0.1}
			fields := []*float64{&c.MaintenanceEvery, &c.MaintenanceOffset, &c.MaintenanceDuration,
				&c.UnplannedPerWeek, &c.UnplannedMeanSeconds, &c.UploadLossProb, &c.UploadRetryDelay,
				&c.ChurnPerWeek, &c.BackoffBase, &c.BackoffCap, &c.ReconnectSmear}
			*fields[i] = v
			bad = append(bad, c)
		}
	}
	bad = append(bad, Config{MaintenanceEvery: 30, MaintenanceDuration: 1},
		Config{UnplannedPerWeek: maxOutagesPerWeek + 1})
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
	// The rate bound itself is accepted.
	Config{UnplannedPerWeek: maxOutagesPerWeek}.Normalized()
}

// TestUploadRetriesBound pins the retry-budget limit: 255 is the largest
// budget the one-byte CallUploadRetry slot can carry, 256 is rejected.
func TestUploadRetriesBound(t *testing.T) {
	if got := (Config{UploadLossProb: 0.1, UploadRetries: 255}).Normalized().UploadRetries; got != 255 {
		t.Errorf("UploadRetries 255 normalized to %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("UploadRetries 256 did not panic")
		}
	}()
	Config{UploadLossProb: 0.1, UploadRetries: 256}.Normalized()
}

func TestEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil config reports enabled")
	}
	if (&Config{BackoffBase: sim.Hour, NoBackoff: true}).Enabled() {
		t.Error("knob-only config reports enabled")
	}
	for _, c := range []Config{
		{MaintenanceEvery: sim.Week},
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
		MaintenanceEvery:     sim.Week,
		UnplannedPerWeek:     0.5,
		UnplannedMeanSeconds: 6 * sim.Hour,
	}.Normalized()
	horizon := 20 * sim.Week
	a := Windows(&cfg, 42, horizon)
	b := Windows(&cfg, 42, horizon)
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
	c := Windows(&cfg, 43, horizon)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical unplanned schedules")
	}
}

func TestWindowsMergePlannedness(t *testing.T) {
	// Two literal windows that overlap: the merge must drop the Planned
	// flag, because an unplanned overrun makes the announced end a lie.
	cfg := Config{MaintenanceEvery: sim.Day, MaintenanceOffset: sim.Hour, MaintenanceDuration: 25 * sim.Hour}
	// Duration > period is rejected by Normalized, so build the overlap via
	// the raw Windows call: consecutive maintenance windows overlap.
	wins := Windows(&cfg, 1, 5*sim.Day)
	if len(wins) != 1 {
		t.Fatalf("overlapping series did not coalesce: %d windows", len(wins))
	}
	if !wins[0].Planned {
		t.Error("merged all-planned window lost its Planned flag")
	}
}

func TestPlannedDelaySleepsToWindowEnd(t *testing.T) {
	cfg := Config{MaintenanceEvery: sim.Week, MaintenanceOffset: sim.Hour, MaintenanceDuration: 4 * sim.Hour}.Normalized()
	eng := sim.NewEngine()
	p := NewPlane(eng, &stubSource{}, cfg, 99, 2*sim.Week)
	eng.AdvanceTo(2 * sim.Hour) // inside the first window, 3h before its end
	idle := 10 * sim.Minute
	for host := 0; host < 50; host++ {
		d := p.FetchRetryDelay(host, idle)
		sleep := d - (cfg.MaintenanceOffset + cfg.MaintenanceDuration - eng.Now())
		if sleep < 0 || sleep >= cfg.ReconnectSmear {
			t.Fatalf("host %d: planned-window delay %v not in [window-end, +smear)", host, d)
		}
	}
	// Outside any window the flat idle retry stands.
	eng.AdvanceTo(6 * sim.Hour)
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
	p.wins = []Window{{Start: 0, End: 30 * sim.Day}} // replace with a fixed unplanned window
	p.winIdx = 0
	prevMax := 0.0
	for n := 0; n < 24; n++ {
		d := p.FetchRetryDelay(3, sim.Minute)
		ideal := cfg.BackoffBase * math.Pow(2, float64(n))
		if ideal > cfg.BackoffCap {
			ideal = cfg.BackoffCap
		}
		if d < 0.5*ideal || d >= 1.5*ideal {
			t.Fatalf("probe %d: delay %v outside jitter band of %v", n, d, ideal)
		}
		if d > prevMax {
			prevMax = d
		}
	}
	if prevMax > 1.5*cfg.BackoffCap {
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
	p.wins = []Window{{Start: 0, End: 30 * sim.Day}}
	p.winIdx = 0
	for n := 0; n < 10; n++ {
		if d := p.FetchRetryDelay(5, sim.Minute); d != cfg.BackoffBase {
			t.Fatalf("probe %d: NoBackoff delay %v != BackoffBase %v", n, d, cfg.BackoffBase)
		}
	}
}

func TestUploadLossRetryAndDrop(t *testing.T) {
	// Deterministic loss draws: with p=0.5 and a seeded hash some uploads
	// are lost and retried; reruns are byte-identical.
	run := func() (Stats, int) {
		cfg := Config{UploadLossProb: 0.5, UploadRetries: 2}.Normalized()
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
	if s1.LostUploads == 0 || s1.RetriedUploads == 0 {
		t.Fatalf("p=0.5 lost nothing: %+v", s1)
	}
	if d1+int(s1.DroppedResults) != 200 {
		t.Errorf("delivered %d + dropped %d != 200 submissions", d1, s1.DroppedResults)
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

func TestZeroRetryBudgetDropsImmediately(t *testing.T) {
	cfg := Config{UploadLossProb: 0.999}.Normalized() // UploadRetries stays 0
	eng := sim.NewEngine()
	src := &stubSource{}
	p := NewPlane(eng, src, cfg, 5, sim.Week)
	for host := 0; host < 100; host++ {
		p.CompleteFrom(&wcg.Assignment{}, wcg.OutcomeValid, 1, host)
	}
	if p.Stats.RetriedUploads != 0 {
		t.Errorf("no-budget plane scheduled %d retries", p.Stats.RetriedUploads)
	}
	if p.Stats.DroppedResults != p.Stats.LostUploads {
		t.Errorf("drops %d != losses %d with zero budget", p.Stats.DroppedResults, p.Stats.LostUploads)
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
	cfg := Config{MaintenanceEvery: sim.Week, MaintenanceOffset: sim.Hour, MaintenanceDuration: sim.Hour}.Normalized()
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

	eng.AdvanceTo(sim.Hour + sim.Minute) // inside the window
	p.RequestWork()
	p.RequestWork()
	if outages != 1 {
		t.Fatalf("OnOutage fired %d times inside one window", outages)
	}
	// After the window: a refused fetch is not a recovery, a dispatch is.
	eng.AdvanceTo(2*sim.Hour + 30*sim.Minute)
	p.RequestWork()
	if recoveries != 0 {
		t.Fatal("recovery recorded on a nil dispatch")
	}
	src.next = &wcg.Assignment{}
	eng.AdvanceTo(3 * sim.Hour)
	p.RequestWork()
	if recoveries != 1 {
		t.Fatalf("recoveries = %d after first real dispatch", recoveries)
	}
	if want := 3*sim.Hour - 2*sim.Hour; lastLag != want {
		t.Errorf("recovery lag = %v, want %v", lastLag, want)
	}
	if p.Stats.Recoveries != 1 || p.Stats.RecoveryLagMax != lastLag {
		t.Errorf("stats not updated: %+v", p.Stats)
	}
}

func TestBuildReportClipsToHorizon(t *testing.T) {
	cfg := Config{MaintenanceEvery: sim.Week, MaintenanceOffset: sim.Hour, MaintenanceDuration: 4 * sim.Hour}.Normalized()
	horizon := sim.Hour + 2*sim.Hour // mid-window
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
	cfg := Config{UploadLossProb: 0.5, UploadRetries: 1}.Normalized()
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
