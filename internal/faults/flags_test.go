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
		{"-maintenance-hours", with(func(f *Flags) { f.MaintenanceHours = 168 })},
		{"-maintenance-hours", with(func(f *Flags) { f.MaintenanceHours = 200 })},
		{"-outage-rate", with(func(f *Flags) { f.OutageRate = nan })},
		{"-outage-rate", with(func(f *Flags) { f.OutageRate = inf })},
		{"-outage-rate", with(func(f *Flags) { f.OutageRate = -1 })},
		{"-outage-rate", with(func(f *Flags) { f.OutageRate = 10081 })},
		{"-outage-rate", with(func(f *Flags) { f.OutageRate = 1e5 })},
		{"-outage-hours", with(func(f *Flags) { f.OutageRate, f.OutageHours = 1, nan })},
		{"-outage-hours", with(func(f *Flags) { f.OutageHours = inf })},
		{"-outage-hours", with(func(f *Flags) { f.OutageHours = math.MaxFloat64 })},
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
		MaintenanceDuration: 2 * sim.Hour,
		UnplannedPerWeek:    0.5, UnplannedMeanSeconds: 6 * sim.Hour,
		UploadLossProb: 0.01, ChurnPerWeek: 0.02, Seed: 9,
	}
	if fc, err := all.Config(); err != nil || fc == nil || *fc != want {
		t.Errorf("full flag set: got (%+v, %v), want %+v", fc, err, want)
	}
}

// TestFlagsConfigWithinPlaneBounds walks each fault flag over zero, both
// ends of its range and the floats either side of them, a huge value, NaN
// and ±Inf. Flags.Config refuses a value naming its flag, and the plane
// accepts every config it returns: a maintenance window of a week or more,
// or more than one unplanned outage a minute, used to pass the flags and
// panic in Normalized after the CLIs had started work.
func TestFlagsConfigWithinPlaneBounds(t *testing.T) {
	week := maintenanceEvery / sim.Hour
	for _, c := range []struct {
		flag string
		set  func(*Flags, float64)
		hi   float64 // the upper end of the flag's range
		in   float64 // a value next to it that must be accepted
	}{
		{"-maintenance-hours", func(f *Flags, v float64) { f.MaintenanceHours = v }, week, math.Nextafter(week, 0)},
		{"-outage-rate", func(f *Flags, v float64) { f.OutageRate = v }, maxOutagesPerWeek, maxOutagesPerWeek},
		{"-outage-hours", func(f *Flags, v float64) { f.OutageRate, f.OutageHours = 1, v }, math.MaxFloat64 / sim.Hour, 1e300},
		{"-upload-loss", func(f *Flags, v float64) { f.UploadLoss = v }, 1, math.Nextafter(1, 0)},
		{"-churn-weekly", func(f *Flags, v float64) { f.ChurnWeekly = v }, 1, math.Nextafter(1, 0)},
	} {
		values := []float64{1e300, math.NaN(), math.Inf(1), math.Inf(-1)}
		for _, b := range []float64{0, c.hi} {
			values = append(values, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
		}
		inAccepted := false
		for _, v := range values {
			f := Flags{OutageHours: 12}
			c.set(&f, v)
			fc, err := f.Config()
			if err != nil {
				if !strings.HasPrefix(err.Error(), c.flag+" ") {
					t.Errorf("%s %v: error %q does not name the flag", c.flag, v, err)
				}
				continue
			}
			inAccepted = inAccepted || v == c.in
			if fc == nil {
				continue
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s %v: accepted, then the plane panicked: %v", c.flag, v, p)
					}
				}()
				fc.Normalized()
			}()
		}
		if !inAccepted {
			t.Errorf("%s %v: refused, want accepted", c.flag, c.in)
		}
	}
}
