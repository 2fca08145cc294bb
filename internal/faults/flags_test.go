package faults

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestFlagsConfig covers every branch of the CLIs' fault-flag resolver:
// each rejection names its flag, -fault-seed alone is refused, no fault
// flag resolves to nil, and a full set resolves to its Config.
func TestFlagsConfig(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	off := Flags{OutageHours: 12} // the CLIs' defaults
	with := func(edit func(*Flags)) Flags {
		f := off
		edit(&f)
		return f
	}
	rejected := []struct {
		flag  string
		flags Flags
	}{
		{"-maintenance-hours", with(func(f *Flags) { f.MaintenanceHours = nan })},
		{"-maintenance-hours", with(func(f *Flags) { f.MaintenanceHours = inf })},
		{"-maintenance-hours", with(func(f *Flags) { f.MaintenanceHours = -1 })},
		{"-outage-rate", with(func(f *Flags) { f.OutageRate = nan })},
		{"-outage-rate", with(func(f *Flags) { f.OutageRate = inf })},
		{"-outage-rate", with(func(f *Flags) { f.OutageRate = -1 })},
		{"-outage-hours", with(func(f *Flags) { f.OutageRate, f.OutageHours = 1, nan })},
		{"-outage-hours", with(func(f *Flags) { f.OutageHours = inf })},
		{"-outage-hours", with(func(f *Flags) { f.OutageRate, f.OutageHours = 1, -1 })},
		{"-outage-hours", with(func(f *Flags) { f.OutageRate, f.OutageHours = 1, 0 })},
		{"-upload-loss", with(func(f *Flags) { f.UploadLoss = nan })},
		{"-upload-loss", with(func(f *Flags) { f.UploadLoss = inf })},
		{"-upload-loss", with(func(f *Flags) { f.UploadLoss = -0.1 })},
		{"-upload-loss", with(func(f *Flags) { f.UploadLoss = 1 })},
		{"-churn-weekly", with(func(f *Flags) { f.ChurnWeekly = nan })},
		{"-churn-weekly", with(func(f *Flags) { f.ChurnWeekly = inf })},
		{"-churn-weekly", with(func(f *Flags) { f.ChurnWeekly = -0.1 })},
		{"-churn-weekly", with(func(f *Flags) { f.ChurnWeekly = 1 })},
		{"-fault-seed", with(func(f *Flags) { f.Seed = 7 })},
	}
	for _, c := range rejected {
		fc, err := c.flags.Config()
		if err == nil || fc != nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%+v: got (%+v, %v), want an error naming %s", c.flags, fc, err, c.flag)
		}
	}

	if fc, err := off.Config(); fc != nil || err != nil {
		t.Errorf("no fault flag: got (%+v, %v), want (nil, nil)", fc, err)
	}
	// An outage length without a rate sets no fault.
	if fc, err := (Flags{OutageHours: 3}).Config(); fc != nil || err != nil {
		t.Errorf("-outage-hours alone: got (%+v, %v), want (nil, nil)", fc, err)
	}

	all := Flags{MaintenanceHours: 2, OutageRate: 0.5, OutageHours: 6, UploadLoss: 0.01, ChurnWeekly: 0.02, Seed: 9}
	want := Config{
		MaintenanceEvery: sim.Week, MaintenanceDuration: 2 * sim.Hour,
		UnplannedPerWeek: 0.5, UnplannedMeanSeconds: 6 * sim.Hour,
		UploadLossProb: 0.01, UploadRetries: 3,
		ChurnPerWeek: 0.02, Seed: 9,
	}
	if fc, err := all.Config(); err != nil || fc == nil || *fc != want {
		t.Errorf("full flag set: got (%+v, %v), want %+v", fc, err, want)
	}
}
