package project

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/protein"
	"repro/internal/sim"
	"repro/internal/volunteer"
)

// checkTimeout bounds one config check: a regression that makes a check
// loop forever (an infinite outage rate used to) fails instead of hanging.
const checkTimeout = 10 * time.Second

// runChecked runs check on its own goroutine and returns its result, or the
// value it panicked with.
func runChecked[T any](t *testing.T, check func() T) (out T, panicked any) {
	t.Helper()
	type result struct {
		out T
		p   any
	}
	done := make(chan result, 1)
	go func() {
		var r result
		defer func() {
			r.p = recover()
			done <- r
		}()
		r.out = check()
	}()
	timer := time.NewTimer(checkTimeout)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.out, r.p
	case <-timer.C:
		t.Fatalf("config check still running after %v", checkTimeout)
	}
	return out, nil
}

// ownPanic reports whether p is one of the config checks' own rejections.
func ownPanic(p any) bool {
	msg, ok := p.(string)
	return ok && (strings.HasPrefix(msg, "project:") || strings.HasPrefix(msg, "faults:"))
}

// checkBase is a small valid configuration for the config-check tests.
func checkBase() Config {
	ds := protein.Generate(4, 1)
	return DefaultConfig(ds, costmodel.Synthesize(ds, costmodel.SynthesizeOptions{Seed: 1}))
}

// TestConfigRejectsNonFinite: NaN passes the old `v <= 0` style checks and
// ±Inf their one-sided bounds, so these configs used to be accepted — and an
// infinite horizon or outage rate then never returned. The out-of-range
// entries ride along: a zero idle retry re-fetched at the same instant
// forever (and one below minIdleRetry took seconds or never finished), a
// negative one scheduled into the past, and a NaN speed-down, late delay or
// deadline crashed the host kernel's calendar or the engine.
func TestConfigRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	profile := func(p volunteer.BehaviorProfile) func(*Config) {
		return func(c *Config) { c.Host.Profiles = []volunteer.BehaviorProfile{p} }
	}
	cases := map[string]func(*Config){
		"HHours NaN":              func(c *Config) { c.HHours = nan },
		"HHours +Inf":             func(c *Config) { c.HHours = inf },
		"WorkScale NaN":           func(c *Config) { c.WorkScale = nan },
		"HostScale NaN":           func(c *Config) { c.HostScale = nan },
		"HostScale +Inf":          func(c *Config) { c.HostScale = inf },
		"MaxWeeks NaN":            func(c *Config) { c.MaxWeeks = nan },
		"MaxWeeks +Inf":           func(c *Config) { c.MaxWeeks = inf },
		"MaxWeeks past the cap":   func(c *Config) { c.MaxWeeks = maxWeeks + 1 },
		"ControlWeeks -Inf":       func(c *Config) { c.ControlWeeks = -inf },
		"RampWeeks NaN":           func(c *Config) { c.RampWeeks = nan },
		"ControlShare NaN":        func(c *Config) { c.ControlShare = nan },
		"FullShare +Inf":          func(c *Config) { c.FullShare = inf },
		"outage rate +Inf":        func(c *Config) { c.Faults = &faults.Config{UnplannedPerWeek: inf} },
		"maintenance NaN":         func(c *Config) { c.Faults = &faults.Config{MaintenanceDuration: nan} },
		"inert fault config NaN":  func(c *Config) { c.Faults = &faults.Config{UploadLossProb: nan} },
		"outage rate above limit": func(c *Config) { c.Faults = &faults.Config{UnplannedPerWeek: 1e9} },

		"IdleRetry 0":                func(c *Config) { c.Host.IdleRetry = 0 },
		"IdleRetry -1":               func(c *Config) { c.Host.IdleRetry = -1 },
		"IdleRetry NaN":              func(c *Config) { c.Host.IdleRetry = nan },
		"IdleRetry 1e-9":             func(c *Config) { c.Host.IdleRetry = 1e-9 },
		"IdleRetry 1":                func(c *Config) { c.Host.IdleRetry = 1 },
		"MeanSpeedDown 0":            func(c *Config) { c.Host.MeanSpeedDown = 0 },
		"MeanSpeedDown NaN":          func(c *Config) { c.Host.MeanSpeedDown = nan },
		"MeanSpeedDown +Inf":         func(c *Config) { c.Host.MeanSpeedDown = inf },
		"SpeedDownSigma NaN":         func(c *Config) { c.Host.SpeedDownSigma = nan },
		"SpeedDownSigma -1":          func(c *Config) { c.Host.SpeedDownSigma = -1 },
		"LateDelayMax NaN":           func(c *Config) { c.Host.LateDelayMax = nan },
		"LateDelayMax +Inf":          func(c *Config) { c.Host.LateDelayMax = inf },
		"LateDelayMax -1":            func(c *Config) { c.Host.LateDelayMax = -1 },
		"HardwareTrendPerWeek NaN":   func(c *Config) { c.Host.HardwareTrendPerWeek = nan },
		"HardwareTrendPerWeek +Inf":  func(c *Config) { c.Host.HardwareTrendPerWeek = inf },
		"HardwareTrendPerWeek -1":    func(c *Config) { c.Host.HardwareTrendPerWeek = -1 },
		"ErrorProb NaN":              func(c *Config) { c.Host.ErrorProb = nan },
		"ErrorProb 1.5":              func(c *Config) { c.Host.ErrorProb = 1.5 },
		"AbandonProb -0.1":           func(c *Config) { c.Host.AbandonProb = -0.1 },
		"LateReturnProb +Inf":        func(c *Config) { c.Host.LateReturnProb = inf },
		"profile ErrorProb NaN":      profile(volunteer.BehaviorProfile{Weight: 1, ErrorProb: nan}),
		"profile ErrorProb negative": profile(volunteer.BehaviorProfile{Weight: 1, ErrorProb: -0.5}),
		"profile AbandonProb 2":      profile(volunteer.BehaviorProfile{Weight: 1, AbandonProb: 2}),
		"profile AbandonProb -Inf":   profile(volunteer.BehaviorProfile{Weight: 1, AbandonProb: -inf}),
		"profile Weight NaN":         profile(volunteer.BehaviorProfile{Weight: nan}),
		"profile Weight -1":          profile(volunteer.BehaviorProfile{Weight: -1}),
		"profile weights sum to 0":   profile(volunteer.BehaviorProfile{Weight: 0}),
		"profile OnlineHours NaN":    profile(volunteer.BehaviorProfile{Weight: 1, Diurnal: true, OnlineHours: nan}),
		"profile OnlineHours -Inf":   profile(volunteer.BehaviorProfile{Weight: 1, OnlineHours: -inf}),
		"Server.Deadline NaN":        func(c *Config) { c.Server.Deadline = nan },
		"Server.Deadline +Inf":       func(c *Config) { c.Server.Deadline = inf },
		"Server.Deadline 0":          func(c *Config) { c.Server.Deadline = 0 },
		"QuorumSwitchTime NaN":       func(c *Config) { c.Server.QuorumSwitchTime = nan },
		"QuorumSwitchTime -1":        func(c *Config) { c.Server.QuorumSwitchTime = -1 },
		"Grid.BaseVFTP NaN":          func(c *Config) { c.Grid.BaseVFTP = nan },
		"Grid.BaseVFTP +Inf":         func(c *Config) { c.Grid.BaseVFTP = inf },
		"Grid.GrowthPerWeek -1":      func(c *Config) { c.Grid.GrowthPerWeek = -1 },
		"Grid.GrowthPerWeek +Inf":    func(c *Config) { c.Grid.GrowthPerWeek = inf },
		"Grid.WeekendDip 1.5":        func(c *Config) { c.Grid.WeekendDip = 1.5 },
		"Grid.HolidayDip -0.1":       func(c *Config) { c.Grid.HolidayDip = -0.1 },
		"Grid.Noise NaN":             func(c *Config) { c.Grid.Noise = nan },
		"Grid.Noise -1":              func(c *Config) { c.Grid.Noise = -1 },
	}
	base := checkBase()
	for name, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, p := runChecked(t, func() *Campaign { return New(cfg) }); !ownPanic(p) {
			t.Errorf("%s: New returned (panic %v), want a project:/faults: rejection", name, p)
		}
	}
	checkWorkBufferBound(t, base, func(cfg Config) { New(cfg) })
}

// checkWorkBufferBound checks that build refuses a work buffer deeper than
// the kernel's one-byte cache count, naming the field — unchecked, 1<<40
// (where int has 64 bits) would have spawn reserve 2^40 cache slots per
// host — and accepts the deepest one.
func checkWorkBufferBound(t *testing.T, base Config, build func(Config)) {
	t.Helper()
	depths := []int{volunteer.MaxWorkBuffer + 1, volunteer.MaxWorkBuffer}
	if strconv.IntSize == 64 {
		huge := uint64(1) << 40 // a variable: the constant would not compile for a 32-bit int
		depths = append(depths, int(huge))
	}
	for _, depth := range depths {
		cfg := base
		cfg.Host.WorkBuffer = depth
		_, p := runChecked(t, func() bool { build(cfg); return true })
		msg, _ := p.(string)
		switch refused := ownPanic(p) && strings.Contains(msg, "Host.WorkBuffer"); {
		case depth > volunteer.MaxWorkBuffer && !refused:
			t.Errorf("Host.WorkBuffer %d: panic %v, want a project: refusal naming the field", depth, p)
		case depth <= volunteer.MaxWorkBuffer && p != nil:
			t.Errorf("Host.WorkBuffer %d: panic %v, want it accepted", depth, p)
		}
	}
}

// TestGridConfigRejectsNonFinite covers checkGridConfig's float fields.
func TestGridConfigRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]func(*Config){
		"share NaN":           func(c *Config) { c.Shares = []float64{1, nan} },
		"share +Inf":          func(c *Config) { c.Shares = []float64{inf, 1} },
		"share sum overflow":  func(c *Config) { c.Shares = []float64{math.MaxFloat64, math.MaxFloat64} },
		"FullShare NaN":       func(c *Config) { c.FullShare = nan },
		"HostScale NaN":       func(c *Config) { c.HostScale = nan },
		"HostScale +Inf":      func(c *Config) { c.HostScale = inf },
		"MaxWeeks +Inf":       func(c *Config) { c.MaxWeeks = inf },
		"Host.IdleRetry 0":    func(c *Config) { c.Host.IdleRetry = 0 },
		"Host.IdleRetry 1e-9": func(c *Config) { c.Host.IdleRetry = 1e-9 },
		"Host.IdleRetry 1":    func(c *Config) { c.Host.IdleRetry = 1 },
		"Host.ErrorProb NaN":  func(c *Config) { c.Host.ErrorProb = nan },
		"Grid.BaseVFTP NaN":   func(c *Config) { c.Grid.BaseVFTP = nan },
		"Grid.WeekendDip 2":   func(c *Config) { c.Grid.WeekendDip = 2 },
	}
	base := gridConfig(t, 1, nil)
	for name, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, p := runChecked(t, func() *Grid { return NewGrid(cfg) }); !ownPanic(p) {
			t.Errorf("%s: NewGrid returned (panic %v), want a project: rejection", name, p)
		}
	}
	checkWorkBufferBound(t, base, func(cfg Config) { NewGrid(cfg) })
}

// TestCoRunConfigRefused: a config with Projects or Shares is a co-run, so
// every single-project entry (New, Runner.Run, Begin, Fork) refuses it
// with a project: message that points to the co-run entries, and a co-run
// refuses a tenant with tenants of its own and a fault plane of its own.
func TestCoRunConfigRefused(t *testing.T) {
	base := checkBase()
	base.HostScale = 0.002 // a small fleet for the forked prefix
	corun := base
	corun.Projects = []Config{base}
	shares := base
	shares.Shares = []float64{1}
	forked := NewRunner()
	forked.Begin(base)
	forked.RunTo(sim.Day)
	forked.Snapshot()
	for name, run := range map[string]func(){
		"New":                     func() { New(corun) },
		"Runner.Run":              func() { NewRunner().Run(corun) },
		"Begin":                   func() { NewRunner().Begin(corun) },
		"Fork":                    func() { forked.Fork(corun) },
		"Shares without Projects": func() { New(shares) },
		"tenant with tenants":     func() { g := gridConfig(t, 1, nil); g.Projects[1] = corun; NewGrid(g) },
	} {
		_, p := runChecked(t, func() bool { run(); return true })
		if msg, _ := p.(string); !ownPanic(p) || !strings.Contains(msg, "NewGrid") {
			t.Errorf("%s: panic %v, want a project: refusal naming NewGrid", name, p)
		}
	}
	faulty := gridConfig(t, 1, nil)
	faulty.Faults = &faults.Config{}
	if _, p := runChecked(t, func() *Grid { return NewGrid(faulty) }); !ownPanic(p) || !strings.Contains(p.(string), "Faults") {
		t.Errorf("co-run with a fault plane: panic %v, want a project: refusal naming Faults", p)
	}
	if _, p := runChecked(t, func() *Grid { return NewGrid(shares) }); !ownPanic(p) {
		t.Errorf("co-run with shares but no projects: panic %v, want a project: refusal", p)
	}
}

// fuzzValues are what a selector byte picks for a float field: zero, a
// negative, NaN, ±Inf, the largest float, and a few ordinary magnitudes so
// valid configs occur too. Selectors past the table keep the default.
var fuzzValues = [...]float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, 0.25, 1, 3.7, sim.Week}

// configFloats lists the float fields of cfg the fuzz target drives:
// Config's own, then its fault plane's when it has one.
func configFloats(cfg *Config) []*float64 {
	p := []*float64{&cfg.HHours, &cfg.ControlWeeks, &cfg.RampWeeks, &cfg.ControlShare,
		&cfg.FullShare, &cfg.WorkScale, &cfg.HostScale, &cfg.MaxWeeks}
	if fc := cfg.Faults; fc != nil {
		p = append(p, &fc.MaintenanceDuration, &fc.UnplannedPerWeek, &fc.UnplannedMeanSeconds,
			&fc.UploadLossProb, &fc.ChurnPerWeek)
	}
	return p
}

// rangedFloat is a float field the fuzz target drives, with the closed
// range an accepted config holds it in (NaN is in no range).
type rangedFloat struct {
	v      *float64
	lo, hi float64
}

// fleetFloats lists the host and grid models' floats with their ranges:
// positive, non-negative, a probability or a dip in [0, 1], and finite.
func fleetFloats(h *volunteer.HostConfig, g *volunteer.GridModel) []rangedFloat {
	const pos, big = math.SmallestNonzeroFloat64, math.MaxFloat64
	return []rangedFloat{
		{&h.MeanSpeedDown, pos, big}, {&h.SpeedDownSigma, 0, big}, {&h.AbandonProb, 0, 1},
		{&h.LateReturnProb, 0, 1}, {&h.ErrorProb, 0, 1}, {&h.IdleRetry, minIdleRetry, big},
		{&h.LateDelayMax, 0, big}, {&h.HardwareTrendPerWeek, 0, big},
		{&g.BaseVFTP, 0, big}, {&g.GrowthPerWeek, 0, big}, {&g.WeekendDip, 0, 1},
		{&g.HolidayDip, 0, 1}, {&g.Noise, 0, big},
	}
}

// modelFloats lists cfg's host and grid models, its server deadline and
// quorum switch time, then each behavior profile's floats (a negative
// AbandonProb inherits the flat rate).
func modelFloats(cfg *Config) []rangedFloat {
	const pos, big = math.SmallestNonzeroFloat64, math.MaxFloat64
	p := append(fleetFloats(&cfg.Host, &cfg.Grid),
		rangedFloat{&cfg.Server.Deadline, pos, big}, rangedFloat{&cfg.Server.QuorumSwitchTime, 0, big})
	for i := range cfg.Host.Profiles {
		pr := &cfg.Host.Profiles[i]
		p = append(p, rangedFloat{&pr.Weight, 0, big}, rangedFloat{&pr.ErrorProb, 0, 1},
			rangedFloat{&pr.AbandonProb, -big, 1}, rangedFloat{&pr.OnlineHours, -big, big})
	}
	return p
}

// checkRanged asserts every field lies in its range.
func checkRanged(t *testing.T, fields []rangedFloat) {
	t.Helper()
	for i, f := range fields {
		if !(*f.v >= f.lo && *f.v <= f.hi) {
			t.Fatalf("checked model field %d = %v, want in [%v, %v]", i, *f.v, f.lo, f.hi)
		}
	}
}

// FuzzCheckConfig drives checkConfig and checkGridConfig with float fields
// picked from fuzzValues: input byte i selects field i — Config's eight
// (bytes 0-7), its fault plane's five (8-12: MaintenanceDuration,
// UnplannedPerWeek, UnplannedMeanSeconds, UploadLossProb, ChurnPerWeek),
// then a two-tenant co-run's two Shares, FullShare, HostScale and MaxWeeks
// (13-17), then Config's host and grid models (thirteen), server deadline
// and quorum switch time, and one behavior profile (four), then the
// co-run's host and grid models (thirteen).
// The contract: a check either panics with a "project:" or "faults:"
// message, or returns finite, in-range fields that check again to the same
// values.
func FuzzCheckConfig(f *testing.F) {
	base := checkBase()
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := base
		cfg.Faults = &faults.Config{}
		cfg.Host.Profiles = []volunteer.BehaviorProfile{{Weight: 1, ErrorProb: 0.01, AbandonProb: -1}}
		tenant := base
		g := Config{Projects: []Config{tenant, tenant}, Shares: []float64{1, 1},
			Host: base.Host, Grid: base.Grid, FullShare: 0.5, HostScale: 0.01, MaxWeeks: 60}
		fields := append(configFloats(&cfg), &g.Shares[0], &g.Shares[1], &g.FullShare, &g.HostScale, &g.MaxWeeks)
		for _, rf := range append(modelFloats(&cfg), fleetFloats(&g.Host, &g.Grid)...) {
			fields = append(fields, rf.v)
		}
		for i, b := range data {
			if sel := int(b % 16); i < len(fields) && sel < len(fuzzValues) {
				*fields[i] = fuzzValues[sel]
			}
		}

		if out, p := runChecked(t, func() Config { return checkConfig(cfg) }); p != nil {
			if !ownPanic(p) {
				t.Fatalf("checkConfig panicked outside the contract: %v", p)
			}
		} else {
			checkConfigOut(t, out)
		}
		if out, p := runChecked(t, func() Config { return checkGridConfig(g) }); p != nil {
			if !ownPanic(p) {
				t.Fatalf("checkGridConfig panicked outside the contract: %v", p)
			}
		} else {
			checkGridOut(t, out)
		}
	})
}

// checkConfigOut asserts the contract on a config checkConfig accepted.
func checkConfigOut(t *testing.T, out Config) {
	t.Helper()
	got := configFloats(&out)
	for i, v := range got {
		if math.IsNaN(*v) || math.IsInf(*v, 0) || *v < 0 {
			t.Fatalf("checked field %d = %v, want finite and non-negative", i, *v)
		}
	}
	switch {
	case out.HHours <= 0, out.WorkScale <= 0, out.WorkScale > 1, out.HostScale <= 0,
		out.MaxWeeks <= 0, out.MaxWeeks > maxWeeks, out.ControlShare > 1, out.FullShare > 1:
		t.Fatalf("checked config out of range: %+v", out)
	}
	model := modelFloats(&out)
	checkRanged(t, model)
	again, p := runChecked(t, func() Config { return checkConfig(out) })
	if p != nil {
		t.Fatalf("re-checking an accepted config panicked: %v", p)
	}
	if (again.Faults == nil) != (out.Faults == nil) {
		t.Fatal("re-check changed whether the fault plane is set")
	}
	for i, v := range configFloats(&again) {
		if *v != *got[i] {
			t.Fatalf("re-check moved field %d: %v → %v", i, *got[i], *v)
		}
	}
	for i, f := range modelFloats(&again) {
		if *f.v != *model[i].v {
			t.Fatalf("re-check moved model field %d: %v → %v", i, *model[i].v, *f.v)
		}
	}
}

// checkGridOut asserts the contract on a co-run config checkGridConfig
// accepted. Normalized shares sum to 1 only to within rounding, so
// renormalizing them may move each by an ulp.
func checkGridOut(t *testing.T, out Config) {
	t.Helper()
	for _, s := range out.Shares {
		if !(s > 0 && s <= 1) {
			t.Fatalf("checked shares %v, want each in (0,1]", out.Shares)
		}
	}
	if !(out.FullShare > 0 && out.FullShare <= 1) || !(out.HostScale > 0) || math.IsInf(out.HostScale, 1) ||
		!(out.MaxWeeks > 0 && out.MaxWeeks <= maxWeeks) {
		t.Fatalf("checked grid out of range: shares %v, grid share %v, host scale %v, max weeks %v",
			out.Shares, out.FullShare, out.HostScale, out.MaxWeeks)
	}
	checkRanged(t, fleetFloats(&out.Host, &out.Grid))
	again, p := runChecked(t, func() Config { return checkGridConfig(out) })
	if p != nil {
		t.Fatalf("re-checking an accepted grid config panicked: %v", p)
	}
	for i, s := range again.Shares {
		if math.Abs(s-out.Shares[i]) > 1e-15 {
			t.Fatalf("re-check moved share %d: %v → %v", i, out.Shares[i], s)
		}
	}
	if again.FullShare != out.FullShare || again.HostScale != out.HostScale || again.MaxWeeks != out.MaxWeeks {
		t.Fatalf("re-check moved grid fields: %+v → %+v", out, again)
	}
}

// TestHugeIdleRetryReturnsAtOnce runs the 1/168 campaign with idle retries
// that checkFleet accepts but no run lives to see. A flat idle retry waits
// on the host kernel's idle-retry ring, which gives it no window index, so
// the window table spans only the pending task completions: each run ends
// at MaxWeeks, uncompleted, at once, and since no retry ever falls due,
// every such run executes the same events (4,252). With the retries in
// calendar windows, 1e12 s alone grew the table toward 1.5e8 slots and
// exhausted memory.
func TestHugeIdleRetryReturnsAtOnce(t *testing.T) {
	var events uint64
	for i, retry := range []float64{1e12, 1e18, 1e300} {
		cfg := testConfig(t, 1.0/168)
		cfg.Host.IdleRetry = retry
		r := New(cfg).Run()
		if r.Completed || r.WeeksElapsed != cfg.MaxWeeks {
			t.Errorf("IdleRetry %g: completed %v after %v weeks, want an unfinished run of %v weeks",
				retry, r.Completed, r.WeeksElapsed, cfg.MaxWeeks)
		}
		if i == 0 {
			events = r.EventsExecuted
		} else if r.EventsExecuted != events {
			t.Errorf("IdleRetry %g: %d events executed, IdleRetry 1e12 %d", retry, r.EventsExecuted, events)
		}
	}
}
