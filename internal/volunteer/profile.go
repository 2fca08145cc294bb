// Host behavior profiles: cohorts of the volunteer fleet.
//
// The paper's population is uniformly well-behaved: every host draws the
// same flat error and abandon probabilities. Real desktop grids are not —
// error rates cluster by machine (broken overclocks, bad RAM), a small
// cohort may sabotage results outright, and home desktops compute on a
// day cycle. BehaviorProfile partitions the joining population into
// weighted cohorts with their own behavior, which is what the adaptive
// validation and saboteur scenarios exercise.
package volunteer

import "repro/internal/sim"

// DefaultOnlineHours is the daily online window of a diurnal host when
// the profile leaves OnlineHours zero: a home machine that is on roughly
// from morning to bedtime.
const DefaultOnlineHours = 14.0

// BehaviorProfile describes one cohort of volunteer hosts. When
// HostConfig.Profiles is non-empty, every joining host draws its cohort
// from the weighted profiles (one extra draw from the host's own stream,
// so runs stay deterministic and worker-count independent); with no
// profiles every host follows the flat HostConfig fields, bit-for-bit as
// before profiles existed.
type BehaviorProfile struct {
	// Name tags the cohort in diagnostics and scenario descriptions.
	Name string
	// Weight is the cohort's relative share of joining hosts. Weights
	// need not sum to 1; they are normalized. Must not all be zero.
	Weight float64
	// ErrorProb is the cohort's per-task invalid-result probability
	// (for a Saboteur cohort: the per-task probability of turning bad).
	ErrorProb float64
	// AbandonProb is the cohort's per-task abandon probability; a
	// negative value inherits HostConfig.AbandonProb.
	AbandonProb float64
	// Saboteur marks a cohort whose invalid results are correlated in
	// time as well as by host: once a host's error draw fires it has
	// "turned" and every subsequent result it reports is invalid. This
	// is the adversary adaptive replication defends against — a turned
	// host's streak resets on its first bad result and never recovers.
	Saboteur bool
	// Diurnal switches the cohort to day-cycle availability: the device
	// computes only during a daily online window of OnlineHours, with a
	// per-host phase spread around the clock, so tasks stretch across
	// the offline gaps (and age toward their deadline while they do).
	Diurnal bool
	// OnlineHours is the length of the diurnal cohort's daily online
	// window; 0 means DefaultOnlineHours.
	OnlineHours float64
}

// SaboteurProfiles is the standard two-cohort split the saboteur
// scenarios use: a faithful cohort at the given flat error probability
// and a saboteur cohort of the given fraction that turns permanently bad
// with probability turnProb per task.
func SaboteurProfiles(frac, faithfulErrProb, turnProb float64) []BehaviorProfile {
	return []BehaviorProfile{
		{Name: "faithful", Weight: 1 - frac, ErrorProb: faithfulErrProb, AbandonProb: -1},
		{Name: "saboteur", Weight: frac, ErrorProb: turnProb, AbandonProb: -1, Saboteur: true},
	}
}

// DiurnalProfiles is a whole-fleet day-cycle profile: every host online
// onlineHours per day, phases spread uniformly, behavior otherwise
// inherited from the flat HostConfig fields.
func DiurnalProfiles(onlineHours, errProb float64) []BehaviorProfile {
	return []BehaviorProfile{
		{Name: "diurnal", Weight: 1, ErrorProb: errProb, AbandonProb: -1, Diurnal: true, OnlineHours: onlineHours},
	}
}

// diurnalDelay converts wall seconds of computation into the elapsed
// simulation time a diurnal host needs for them, walking the host's
// daily online windows from now. The host computes only inside
// [phase, phase+onlineSpan) of each day; offline gaps add elapsed time
// without adding computation.
func diurnalDelay(now sim.Time, wall, phase, onlineSpan float64) float64 {
	if wall <= 0 {
		return 0
	}
	// Position inside the host's cycle, measured from its window start.
	t := now - phase
	t -= float64(int(t/sim.Day)) * sim.Day
	if t < 0 {
		t += sim.Day
	}
	elapsed := 0.0
	if t >= onlineSpan {
		// Offline now: wait for the next window.
		elapsed = sim.Day - t
		t = 0
	}
	for {
		slice := onlineSpan - t
		if wall <= slice {
			return elapsed + wall
		}
		wall -= slice
		elapsed += slice + (sim.Day - onlineSpan) // finish window, sleep the gap
		t = 0
	}
}
