// Package vftp implements the paper's virtual full-time processor metric
// and the volunteer-to-dedicated equivalence of Table 2.
//
// §3.1 introduces the metric: "How many processors do we need to generate
// 10 years of cpu time for 1 day? If for 1 day, 10 years of cpu time are
// consumed, it is equivalent to at least 3,650 processors that compute full
// time for 1 day." A virtual full-time processor (VFTP) is therefore one
// day of reported CPU time per day of wall time. It says nothing about the
// processor's power — which is exactly why the paper then needs the
// speed-down factor to compare against a dedicated grid.
package vftp

import "fmt"

// SecondsPerDay is the VFTP accounting granularity.
const SecondsPerDay = 86400.0

// FromCPU converts consumed CPU time over a wall-clock window into virtual
// full-time processors.
func FromCPU(cpuSeconds, wallSeconds float64) float64 {
	if wallSeconds <= 0 {
		panic("vftp: wall window must be positive")
	}
	return cpuSeconds / wallSeconds
}

// DedicatedEquivalent converts volunteer VFTP into the number of dedicated
// reference processors doing the same useful work: the volunteer CPU time
// is inflated by the speed-down factor (wall-clock accounting, throttle,
// shared and slower hardware) and by redundant computing, so
//
//	dedicated = vftp / totalFactor
//
// where totalFactor = speedDown × redundancy (the paper's 5.43 = 3.96 × 1.37).
func DedicatedEquivalent(vftp, totalFactor float64) float64 {
	if totalFactor <= 0 {
		panic("vftp: total factor must be positive")
	}
	return vftp / totalFactor
}

// Paper constants of §6.
const (
	// PaperSpeedDown is the measured per-result slow-down net of
	// redundancy.
	PaperSpeedDown = 3.96
	// PaperRedundancy is the measured redundancy factor.
	PaperRedundancy = 1.37
	// PaperTotalFactor is the end-to-end CPU-time inflation.
	PaperTotalFactor = 5.43
)

// EquivalenceRow is one line of Table 2.
type EquivalenceRow struct {
	Period    string
	Volunteer float64 // virtual full-time processors on the volunteer grid
	Dedicated float64 // equivalent dedicated processors
}

// Table2 builds the paper's Table 2 from the two period averages and the
// measured total factor: the whole campaign and the full-power phase.
func Table2(wholeVFTP, fullPowerVFTP, totalFactor float64) []EquivalenceRow {
	return []EquivalenceRow{
		{Period: "whole period", Volunteer: wholeVFTP, Dedicated: DedicatedEquivalent(wholeVFTP, totalFactor)},
		{Period: "full power working phase", Volunteer: fullPowerVFTP, Dedicated: DedicatedEquivalent(fullPowerVFTP, totalFactor)},
	}
}

// PaperTable2 returns Table 2 with the paper's published inputs
// (16,450 and 26,248 VFTP; factor 5.43), yielding 3,029 and 4,833.
func PaperTable2() []EquivalenceRow {
	return Table2(16450, 26248, PaperTotalFactor)
}

// String renders a row the way the paper prints it.
func (r EquivalenceRow) String() string {
	return fmt.Sprintf("%-26s %10.0f %10.0f", r.Period, r.Volunteer, r.Dedicated)
}
