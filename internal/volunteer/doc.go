// Package volunteer models the volunteer side of World Community Grid: the
// device fleet, its compute behaviour, and the run-time accounting quirks
// that produce the paper's measured slow-down.
//
// §6 of the paper explains why a workunit that needs t seconds on the
// reference Opteron 2 GHz consumes on average 3.96·t of *reported* run time
// on the grid (5.43·t including redundant copies):
//
//   - the UD agent measures wall-clock time, not process CPU time;
//   - the agent is capped at 60 % CPU by default (the throttle);
//   - the research application runs at the lowest priority, so any other
//     use of the computer displaces it (≲ 50 % of elapsed time in practice);
//   - volunteer devices are on average slower than the reference processor,
//     and the screensaver itself consumes cycles.
//
// Every host carries a speed-down factor — the product of those causes —
// sampled from a calibrated distribution whose mean is the paper's 3.96.
// Hosts also abandon work (producing timeouts and late results) and
// occasionally return invalid results, which drives the server's
// redundancy factor.
//
// # Host kernel
//
// The fleet runs on one kernel, ShardKernel: host state is stored as a
// structure of arrays indexed by host ID (plane.go), and host
// continuations live in one window calendar merged against the sim.Engine
// heap in global (time, seq) order; the rare one due inside the armed
// window waits in that heap (kernel.go). A fetch-compute-report cycle
// per host is: top up the local work buffer from the work source, start
// the front assignment, draw the task's behaviour (abandon / late return /
// invalid) from the host's own stream, and schedule the completion. Every
// draw runs inline as the kernel executes events in global order, on the
// caller's goroutine.
//
// # Behavior profiles
//
// By default every host draws the same flat error and abandon
// probabilities. HostConfig.Profiles instead partitions the joining fleet
// into weighted cohorts (see BehaviorProfile in profile.go): per-cohort
// error rates, saboteur cohorts whose hosts turn permanently bad
// (correlated invalid results — the adversary the middleware's adaptive
// replication defends against), and diurnal cohorts that compute only
// during a daily online window. A host resolves its cohort once, at spawn,
// from its own random stream; an unprofiled fleet draws nothing extra.
//
// # Multi-project work fetch
//
// The kernel talks to the project side through one seam, the WorkSource
// interface (worksource.go), and binds exactly one source: the *wcg.Server
// of a single-project fleet, the fault plane wrapping it, or on a shared
// multi-project grid a Mux (mux.go). The Mux sends each host's fetch to the
// attached project the host owes the most time to under BOINC-style
// short-term debt, with per-host seeded tie-breaks, so every project
// receives its configured resource share of each host's time and an idle
// project yields its slice. The per-host debt vectors and tie-break
// streams are dense columns of the Mux, indexed by host ID like the
// kernel's own columns.
//
// # Reset contract
//
// ShardKernel.Reset rearms the kernel for another run on the same (freshly
// reset) engine and work source: zero hosts joined, a new host
// configuration and seed stream, the observer hook cleared, every column,
// calendar chunk and merge buffer retained. Everything observable (active
// count, join counter, per-host state) is reinitialized exactly as a fresh
// kernel would produce, so the steady state of a pooled run context
// allocates no per-host memory.
package volunteer
