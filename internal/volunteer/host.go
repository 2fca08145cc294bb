package volunteer

import "repro/internal/sim"

// Speed-down decomposition constants (§6). Their product is the calibrated
// mean slow-down; the ablation bench switches them off one at a time.
const (
	// UDThrottleFactor is the wall-time inflation of the default 60 % CPU
	// cap of the UD agent: 1/0.6.
	UDThrottleFactor = 1.0 / 0.6
	// PriorityFactor is the inflation from running at the lowest priority
	// on a shared machine (other processes displace the research app).
	PriorityFactor = 1.32
	// HardwareFactor is the inflation from volunteer devices being slower
	// on average than an Opteron 2 GHz (screensaver overhead included).
	HardwareFactor = 1.80
)

// MeanSpeedDown is the calibrated mean reported-time inflation, the paper's
// measured 3.96.
const MeanSpeedDown = UDThrottleFactor * PriorityFactor * HardwareFactor // ≈ 3.96

// AccountingMode selects how the agent measures the run time it reports —
// the middleware difference the paper's conclusion discusses: phase I ran
// on the UD agent only, phase II will run on BOINC only, and "there exists
// differences between the way the two middleware systems account for
// run-time".
type AccountingMode int

const (
	// UDWallClock reports elapsed wall-clock time while the task is
	// loaded (phase I): throttle idle and priority displacement inflate
	// the figure.
	UDWallClock AccountingMode = iota
	// BOINCCPUTime reports actual process CPU time (phase II): only the
	// device's hardware slowness remains in the figure.
	BOINCCPUTime
)

// HostConfig tunes host behaviour.
type HostConfig struct {
	// MeanSpeedDown is the mean of the per-host speed-down distribution.
	MeanSpeedDown float64
	// SpeedDownSigma is the log-normal spread of per-host speed-down.
	SpeedDownSigma float64
	// AbandonProb is the per-task probability that the volunteer kills or
	// shelves the task so long that the server deadline passes.
	AbandonProb float64
	// LateReturnProb is, given abandonment, the probability the result
	// still comes back eventually (long-offline devices reconnecting,
	// §5.1) rather than vanishing.
	LateReturnProb float64
	// ErrorProb is the per-task probability of returning an invalid result.
	ErrorProb float64
	// IdleRetry is how long a host waits before re-asking when the server
	// had no work.
	IdleRetry float64
	// LateDelayMax bounds the extra delay of a late return beyond the
	// deadline.
	LateDelayMax float64
	// Accounting selects the agent's run-time measurement (§8).
	Accounting AccountingMode
	// WorkBuffer is how many assignments the agent caches locally
	// (BOINC's connect-interval behaviour). 0 or 1 = fetch one at a time.
	// Larger buffers smooth over server outages but age tasks toward
	// their deadline while they queue on the device.
	WorkBuffer int
	// HardwareTrendPerWeek is the relative speed gain of newly joining
	// devices per week since the simulation epoch ("there are always new
	// members that join the grid with brand new machines", §5.1).
	HardwareTrendPerWeek float64
	// Profiles partitions the joining population into weighted behavior
	// cohorts (per-cohort error rates, saboteurs, diurnal availability).
	// Empty means every host follows the flat fields above, exactly as
	// before profiles existed.
	Profiles []BehaviorProfile
	// OnSaboteurTurn, if non-nil, is invoked once per saboteur host at the
	// moment it turns permanently bad — the run-trace hook for adversarial
	// onsets. Read-only with respect to the model; excluded from JSON so
	// marshaled configurations are unaffected.
	OnSaboteurTurn func(id int, at sim.Time) `json:"-"`
}

// DefaultHostConfig mirrors the production campaign.
func DefaultHostConfig() HostConfig {
	return HostConfig{
		MeanSpeedDown:  MeanSpeedDown,
		SpeedDownSigma: 0.40,
		AbandonProb:    0.06,
		LateReturnProb: 0.55,
		ErrorProb:      0.015,
		IdleRetry:      6 * sim.Hour,
		LateDelayMax:   10 * sim.Day,
		Accounting:     UDWallClock,
		// ~0.2 %/week ≈ 11 %/year, a conservative mid-2000s desktop
		// refresh trend.
		HardwareTrendPerWeek: 0.002,
	}
}
