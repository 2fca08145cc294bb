package volunteer

import "repro/internal/wcg"

// WorkSource is what a volunteer host needs from the project side of the
// grid: a place to fetch work from, report results to, and ask deadlines
// of. The host kernel binds exactly one: the *wcg.Server on a
// single-project campaign, the fault plane wrapping it on a fault run, or
// the Mux on a multi-project co-run, which arbitrates every request across
// the attached project servers per host.
//
// Determinism contract: an implementation must be a pure function of the
// simulation state and its own seeded stream — no wall clock, no map
// iteration, no shared mutable state across hosts that depends on event
// arrival races. The discrete-event engine serializes all calls, so
// implementations need no locking.
type WorkSource interface {
	// RequestWorkFor hands out one assignment to the fetching host, or nil
	// when no attached project has work available. host is the fetching
	// device's identity (the Mux arbitrates by it); a server ignores it.
	RequestWorkFor(host int) *wcg.Assignment
	// CompleteFrom reports a finished assignment back to the server that
	// issued it. host is the reporting device's identity (for per-host
	// validation trust); negative means anonymous.
	CompleteFrom(a *wcg.Assignment, outcome wcg.Outcome, cpuSeconds float64, host int)
	// DeadlineFor returns the reissue deadline of the assignment's
	// deadline class on the server that issued it.
	DeadlineFor(a *wcg.Assignment) float64
}

// The production server and the multi-project mux satisfy WorkSource by
// construction.
var _ WorkSource = (*wcg.Server)(nil)
var _ WorkSource = (*Mux)(nil)

// RetryAdvisor is an optional WorkSource extension: when a host's fetch
// comes up empty, the advisor decides how long to wait before the next
// attempt instead of the flat Config.IdleRetry. The fault plane
// (internal/faults) implements it to substitute capped exponential backoff
// with seeded jitter while the server is down, and announced-maintenance
// deferral with reconnect smearing.
//
// The kernel resolves the advisor once, by type assertion at bind time; a
// plain *wcg.Server or a Mux (which do not implement it) costs one nil
// check per idle retry and keeps the flat delay.
type RetryAdvisor interface {
	// FetchRetryDelay returns how long host should wait before its next
	// fetch given the configured flat idle-retry delay. Must be positive
	// and deterministic in (simulation state, host, call order) — the
	// same contract as WorkSource.
	FetchRetryDelay(host int, idleRetry float64) float64
}
