package project

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/protein"
	"repro/internal/sim"
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
// entries (MaxWeeks, Shards) ride along.
func TestConfigRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]func(*Config){
		"HHours NaN":              func(c *Config) { c.HHours = nan },
		"HHours +Inf":             func(c *Config) { c.HHours = inf },
		"WorkScale NaN":           func(c *Config) { c.WorkScale = nan },
		"HostScale NaN":           func(c *Config) { c.HostScale = nan },
		"HostScale +Inf":          func(c *Config) { c.HostScale = inf },
		"MaxWeeks NaN":            func(c *Config) { c.MaxWeeks = nan },
		"MaxWeeks +Inf":           func(c *Config) { c.MaxWeeks = inf },
		"MaxWeeks past the cap":   func(c *Config) { c.MaxWeeks = maxWeeks + 1 },
		"Shards past the cap":     func(c *Config) { c.Shards = MaxShards + 1 },
		"Shards MaxInt":           func(c *Config) { c.Shards = math.MaxInt },
		"ControlWeeks -Inf":       func(c *Config) { c.ControlWeeks = -inf },
		"RampWeeks NaN":           func(c *Config) { c.RampWeeks = nan },
		"ControlShare NaN":        func(c *Config) { c.ControlShare = nan },
		"FullShare +Inf":          func(c *Config) { c.FullShare = inf },
		"outage rate +Inf":        func(c *Config) { c.Faults = &faults.Config{UnplannedPerWeek: inf} },
		"maintenance NaN":         func(c *Config) { c.Faults = &faults.Config{MaintenanceEvery: sim.Week, MaintenanceDuration: nan} },
		"inert fault config NaN":  func(c *Config) { c.Faults = &faults.Config{UploadLossProb: nan} },
		"outage rate above limit": func(c *Config) { c.Faults = &faults.Config{UnplannedPerWeek: 1e9} },
	}
	base := checkBase()
	for name, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, p := runChecked(t, func() *Campaign { return New(cfg) }); !ownPanic(p) {
			t.Errorf("%s: New returned (panic %v), want a project:/faults: rejection", name, p)
		}
	}
}

// TestConfigAcceptsMaxShards: the shard bound is inclusive
// (TestConfigRejectsNonFinite covers the counts above it).
func TestConfigAcceptsMaxShards(t *testing.T) {
	cfg := checkBase()
	cfg.Shards = MaxShards
	out, p := runChecked(t, func() Config { return checkConfig(cfg) })
	if p != nil || out.Shards != MaxShards {
		t.Errorf("Shards %d: checkConfig gave %d (panic %v), want it accepted", MaxShards, out.Shards, p)
	}
}

// TestGridConfigRejectsNonFinite covers checkGridConfig's float fields.
func TestGridConfigRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]func(*GridConfig){
		"share NaN":          func(c *GridConfig) { c.Shares = []float64{1, nan} },
		"share +Inf":         func(c *GridConfig) { c.Shares = []float64{inf, 1} },
		"share sum overflow": func(c *GridConfig) { c.Shares = []float64{math.MaxFloat64, math.MaxFloat64} },
		"GridShare NaN":      func(c *GridConfig) { c.GridShare = nan },
		"HostScale NaN":      func(c *GridConfig) { c.HostScale = nan },
		"HostScale +Inf":     func(c *GridConfig) { c.HostScale = inf },
		"MaxWeeks +Inf":      func(c *GridConfig) { c.MaxWeeks = inf },
	}
	base := gridConfig(t, 1, nil)
	for name, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, p := runChecked(t, func() *Grid { return NewGrid(cfg) }); !ownPanic(p) {
			t.Errorf("%s: NewGrid returned (panic %v), want a project: rejection", name, p)
		}
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
		p = append(p, &fc.MaintenanceEvery, &fc.MaintenanceOffset, &fc.MaintenanceDuration,
			&fc.UnplannedPerWeek, &fc.UnplannedMeanSeconds, &fc.UploadLossProb, &fc.UploadRetryDelay,
			&fc.ChurnPerWeek, &fc.BackoffBase, &fc.BackoffCap, &fc.ReconnectSmear)
	}
	return p
}

// FuzzCheckConfig drives checkConfig and checkGridConfig with float fields
// picked from fuzzValues: input byte i selects field i — Config's eight,
// its fault plane's eleven, then a two-tenant GridConfig's two Shares,
// GridShare, HostScale and MaxWeeks. The contract: a check either panics
// with a "project:" or "faults:" message, or returns finite, in-range
// fields that check again to the same values.
func FuzzCheckConfig(f *testing.F) {
	base := checkBase()
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := base
		cfg.Faults = &faults.Config{}
		tenant := base
		g := GridConfig{Projects: []Config{tenant, tenant}, Shares: []float64{1, 1},
			Host: base.Host, Grid: base.Grid, GridShare: 0.5, HostScale: 0.01, MaxWeeks: 60}
		fields := append(configFloats(&cfg), &g.Shares[0], &g.Shares[1], &g.GridShare, &g.HostScale, &g.MaxWeeks)
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
		if out, p := runChecked(t, func() GridConfig { return checkGridConfig(g) }); p != nil {
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
}

// checkGridOut asserts the contract on a GridConfig checkGridConfig
// accepted. Normalized shares sum to 1 only to within rounding, so
// renormalizing them may move each by an ulp.
func checkGridOut(t *testing.T, out GridConfig) {
	t.Helper()
	for _, s := range out.Shares {
		if !(s > 0 && s <= 1) {
			t.Fatalf("checked shares %v, want each in (0,1]", out.Shares)
		}
	}
	if !(out.GridShare > 0 && out.GridShare <= 1) || !(out.HostScale > 0) || math.IsInf(out.HostScale, 1) ||
		!(out.MaxWeeks > 0 && out.MaxWeeks <= maxWeeks) {
		t.Fatalf("checked grid out of range: shares %v, grid share %v, host scale %v, max weeks %v",
			out.Shares, out.GridShare, out.HostScale, out.MaxWeeks)
	}
	again, p := runChecked(t, func() GridConfig { return checkGridConfig(out) })
	if p != nil {
		t.Fatalf("re-checking an accepted grid config panicked: %v", p)
	}
	for i, s := range again.Shares {
		if math.Abs(s-out.Shares[i]) > 1e-15 {
			t.Fatalf("re-check moved share %d: %v → %v", i, out.Shares[i], s)
		}
	}
	if again.GridShare != out.GridShare || again.HostScale != out.HostScale || again.MaxWeeks != out.MaxWeeks {
		t.Fatalf("re-check moved grid fields: %+v → %+v", out, again)
	}
}
