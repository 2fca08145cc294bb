// Package snapshot states the contract of a run-context snapshot and
// provides its two slice helpers. A snapshot captures the mutable state of
// every subsystem at an event boundary so a what-if suffix can be run from
// it any number of times: a prefix shared by many sweep cells is paid for
// once (project.Runner: Materialize, AdoptSnapshot, Fork, Restore).
//
// # Contract
//
// There is one kind of snapshot, the portable one: a self-contained value
// that any pooled run context — the one it was taken from or another
// worker's — can adopt, so the suffixes of one prefix can race on every
// core. The live run context is full of pointers to the live server,
// hosts and tenant: in closures (policy method values, completion hooks,
// ticker bodies) and in the handlers and references of scheduled events.
// The contract splits the state three ways so that none of them crosses
// the boundary:
//
//   - Copies: mutable POD state — SoA columns, queues, tables, counters,
//     rng sources, histogram bins — is deep-copied (Clone) into buffers
//     the snapshot owns. Nothing aliases the source context, so the source
//     keeps running (on to the next divergence group) while any number of
//     adopters read the snapshot concurrently.
//   - Translates: intra-run pointers (*WUState, *Assignment, hosts) are
//     rewritten as arena/slice indices at capture and resolved against the
//     adopter's own arenas. An arena travels as its live chunks only; the
//     adopter installs each onto one of its own chunks under the same
//     logical chunk number (slab.Adopt), so an allocation index names the
//     same object on both sides (slab.Arena.At), and the adopter goes on
//     carving and releasing exactly where the source stood.
//   - Re-binds: everything with a closure environment is never copied at
//     all. The adopter first rebuilds immutable structure with the same
//     Reset/prepare/bind machinery a fresh run uses (policy method values,
//     completion hooks, batch plans, fault windows). Scheduled events hold
//     no closure to rebuild: an event is its sim.Call descriptor, run by
//     the handler it was scheduled with, so the schedule travels as
//     descriptors and each revives onto the adopter's own handler of its
//     kind — its server or fault plane (sim.Engine.AdoptEvent), its host
//     kernel (volunteer.ShardKernel.AdoptEvent, which decides where a
//     continuation waits), or a ticker armed with its pending tick
//     (sim.Engine.AdoptTicker, with the same tick method a fresh start
//     arms). A closure scheduled with sim.Engine.Schedule (a CallFunc)
//     makes sim.Engine.ExportEvents fail; the snapshot tests materialize
//     at every weekly boundary of the stress configurations so one cannot
//     ship.
//
// After adoption the target context is observably byte-identical to the
// source at the capture point: same clock, same (time, seq) event order,
// same rng streams, same counters. A forked suffix run on an adopter
// produces the same report bytes as a straight run.
//
// # Per-subsystem state
//
// A snapshot holds each fact once: one event schedule, one engine counter
// value, and each layer's own columns. Each runtime package owns its
// portable type (the state is private):
//
//   - sim.Engine: its Counters value (clock, FIFO sequence, executed,
//     pending and peak pending) whole; the heap as PortableEvent
//     descriptors, in heap-array order, which open the snapshot's one
//     event list. Tickers are not exported: the adopter arms a ticker
//     with each adopted tick (AdoptTicker). An assignment an event
//     carries in its reference (a late return's, an upload re-send's) is
//     an arena index in its descriptor, which the adopter resolves.
//   - wcg.Server (PortableServer): the live chunks of the WUState and
//     Assignment arenas (logical numbers, live-object bitmaps, objects with
//     pointers as indices and their hold state), the work queue, batch
//     buckets, deadline rings, trust streaks, scheduler rng and stats.
//     Every bind-time policy value is rebuilt by the adopter's Reset.
//   - volunteer.ShardKernel (PortableKernel): every SoA column, the
//     population stream and the armed window. Its pending continuations —
//     the armed buffer's unread rest, every pending window and the
//     idle-retry ring — are appended to the one event list in the CallHost
//     form a heap continuation exports as. The adopter routes each as
//     schedule would: a late return, or one due inside the armed window,
//     into its engine's heap, any other into its calendar window. Where a
//     continuation waits never moves the execution order (Merge order in
//     volunteer/kernel.go): a window is sorted by (time, seq) at its
//     barrier, and the merge takes the least key of buffer, ring and
//     heap. A calendar entry carries no assignment: late returns wait in
//     the engine's heap. A multiplexed kernel's mux columns are not
//     covered, so grid co-runs cannot be snapshotted.
//   - faults.Plane (PortablePlane): the outage spool (assignments as
//     indices) and its armed flag, the per-host attempt/epoch/upload
//     tables, window cursor, churn accumulator and stats; the outage
//     schedule is recomputed from (cfg, seed, horizon).
//   - stats.Histogram (PortableHistogram): bins and counters.
//   - project tenant: batch progress, release cursor, weekly
//     accumulators, weekly-loop state and Figure 7 captures; batch plans,
//     release order and the report skeleton are rebuilt by prepare.
//   - credit.Ledger is not captured: the campaign writes it only in its
//     finish phase, and the adopter's Reset clears it.
//
// Snapshots are in-memory only and are never persisted; checkpoint files
// continue to record finished cells, not mid-run state.
package snapshot

import "unsafe"

// Clone returns a freshly allocated copy of s (nil when s is empty) — the
// Copies rule for one slice of live state.
func Clone[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// Size returns the in-memory size of s's elements in bytes, for the
// snapshot_bytes accounting of a materialized snapshot.
func Size[T any](s []T) int {
	var z T
	return len(s) * int(unsafe.Sizeof(z))
}
