package volunteer

import (
	"repro/internal/rng"
	"repro/internal/sim"
)

// GridModel is the analytic model of the whole World Community Grid used
// for Figure 1 (grid-wide VFTP since launch) and for the available-capacity
// curve of Figure 6(a). It is a growth model with calendar modulation, not
// a device-level simulation: the paper's own Figure 1 is derived from the
// web site's aggregate statistics exactly the same way.
type GridModel struct {
	// Launch VFTP and weekly growth of the grid-wide capacity.
	BaseVFTP      float64
	GrowthPerWeek float64
	// WeekendDip is the relative capacity drop on Saturday/Sunday
	// (volunteers' office machines going idle... or off).
	WeekendDip float64
	// HolidayDip is the relative drop during holiday periods.
	HolidayDip float64
	// Noise is the relative day-to-day jitter.
	Noise float64
}

// DefaultGridModel calibrates the grid to the paper's numbers: the grid
// passed ~55,000 virtual full-time processors on average during the HCMD
// campaign (which starts at week 110 of this model, December 2006, two
// years after the November 2004 launch) and reached ~74,825 the week the
// paper was written (late 2007).
func DefaultGridModel() GridModel {
	return GridModel{
		BaseVFTP:      4000,
		GrowthPerWeek: 440,
		WeekendDip:    0.12,
		HolidayDip:    0.25,
		Noise:         0.03,
	}
}

// holiday reports whether day d (0 = Monday, week 0 = launch week in
// mid-November) falls in a modelled holiday trough: Christmas/New Year
// (late December) and the summer slowdown (July-August), the two dips the
// paper points out in Figure 1.
func holiday(day int) bool {
	// Model years as 52-week blocks from launch (launch ≈ mid-November).
	dayOfYear := day % 364
	// Launch + ~40 days ≈ Christmas; a 2-week trough.
	if dayOfYear >= 38 && dayOfYear < 52 {
		return true
	}
	// Summer: ~7.5 months after launch, an 8-week softer trough.
	if dayOfYear >= 228 && dayOfYear < 284 {
		return true
	}
	return false
}

// DailyVFTP returns the modelled grid-wide virtual full-time processors for
// each day in [0, days): the Figure 1 series. Deterministic in seed.
func (g GridModel) DailyVFTP(days int, seed uint64) []float64 {
	r := rng.New(seed)
	var cal sim.Calendar
	out := make([]float64, days)
	for d := 0; d < days; d++ {
		t := float64(d) * sim.Day
		base := g.BaseVFTP + g.GrowthPerWeek*float64(d)/7
		v := base
		if cal.IsWeekend(t) {
			v *= 1 - g.WeekendDip
		}
		if holiday(d) {
			v *= 1 - g.HolidayDip
		}
		v *= 1 + g.Noise*r.NormFloat64()
		if v < 0 {
			v = 0
		}
		out[d] = v
	}
	return out
}

// VFTPAt returns the trend capacity (no calendar modulation) at week w.
func (g GridModel) VFTPAt(week float64) float64 {
	return g.BaseVFTP + g.GrowthPerWeek*week
}
