package faults

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Flags are the fault-plane command-line flags that cmd/hcmdsim and
// cmd/sweep share, in the flags' own units.
type Flags struct {
	MaintenanceHours float64 // -maintenance-hours: weekly planned window, in hours
	OutageRate       float64 // -outage-rate: unplanned outages per week
	OutageHours      float64 // -outage-hours: mean unplanned outage, in hours
	UploadLoss       float64 // -upload-loss: per-result loss probability
	ChurnWeekly      float64 // -churn-weekly: fleet fraction departing per week
	Seed             uint64  // -fault-seed: 0 derives it from the run seed
}

// Config resolves the flags into a campaign fault configuration, or nil
// when no fault flag is set (the zero-fault path, byte-identical to a run
// without the fault plane). The error names the offending flag; a value the
// plane would refuse (a maintenance window of a week or more, more than one
// unplanned outage a minute, an outage length that overflows in seconds) is
// refused here, before any work.
func (f Flags) Config() (*Config, error) {
	switch {
	case !(f.MaintenanceHours >= 0 && f.MaintenanceHours*sim.Hour < maintenanceEvery):
		return nil, fmt.Errorf("-maintenance-hours must be in [0, %v) (the window recurs weekly), got %v",
			maintenanceEvery/sim.Hour, f.MaintenanceHours)
	case !(f.OutageRate >= 0 && f.OutageRate <= maxOutagesPerWeek):
		return nil, fmt.Errorf("-outage-rate must be in [0, %v] (one outage a minute), got %v", maxOutagesPerWeek, f.OutageRate)
	case f.OutageRate > 0 && !(f.OutageHours > 0), math.IsInf(f.OutageHours*sim.Hour, 1):
		return nil, fmt.Errorf("-outage-hours must be finite and > 0 with -outage-rate, got %v", f.OutageHours)
	case !(f.UploadLoss >= 0 && f.UploadLoss < 1):
		return nil, fmt.Errorf("-upload-loss must be in [0, 1), got %v", f.UploadLoss)
	case !(f.ChurnWeekly >= 0 && f.ChurnWeekly < 1):
		return nil, fmt.Errorf("-churn-weekly must be in [0, 1), got %v", f.ChurnWeekly)
	}
	if f.MaintenanceHours == 0 && f.OutageRate == 0 && f.UploadLoss == 0 && f.ChurnWeekly == 0 {
		if f.Seed != 0 {
			return nil, fmt.Errorf("-fault-seed needs at least one fault flag (-maintenance-hours, -outage-rate, -upload-loss, -churn-weekly)")
		}
		return nil, nil
	}
	fc := &Config{
		MaintenanceDuration: f.MaintenanceHours * sim.Hour,
		UploadLossProb:      f.UploadLoss,
		ChurnPerWeek:        f.ChurnWeekly,
		Seed:                f.Seed,
	}
	if f.OutageRate > 0 {
		fc.UnplannedPerWeek = f.OutageRate
		fc.UnplannedMeanSeconds = f.OutageHours * sim.Hour
	}
	return fc, nil
}
