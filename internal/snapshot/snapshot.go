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
// core. The live run context is full of closures (scheduled events, policy
// method values, completion hooks) that capture pointers to the live
// server, hosts and tenant; the contract splits the state three ways so
// that none of them crosses the boundary:
//
//   - Copies: mutable POD state — SoA columns, queues, tables, counters,
//     rng sources, histogram bins — is deep-copied (Clone) into buffers
//     the snapshot owns. Nothing aliases the source context, so the source
//     keeps running (on to the next divergence group) while any number of
//     adopters read the snapshot concurrently.
//   - Translates: intra-run pointers (*WUState, *Assignment, hosts) are
//     rewritten as arena/slice indices at capture and resolved against the
//     adopter's own arenas — which, having replayed the same deterministic
//     allocation sequence, carve the same objects in the same order
//     (slab.Arena.At).
//   - Re-binds: everything with a closure environment is never copied at
//     all. The adopter first rebuilds immutable structure with the same
//     Reset/prepare/bind machinery a fresh run uses (policy method values,
//     completion hooks, batch plans, fault windows), then revives the
//     schedule from portable descriptors: every scheduled event carries a
//     sim.Call tag naming its kind and small arguments, and the adopting
//     subsystems rebuild equivalent closures bound to their own objects
//     (sim.Engine.AdoptEvent, dormant tickers). An untagged event makes
//     sim.Engine.ExportEvents fail; the snapshot tests materialize at every
//     weekly boundary of the stress configurations so one cannot ship.
//
// After adoption the target context is observably byte-identical to the
// source at the capture point: same clock, same (time, seq) event order,
// same rng streams, same counters. A forked suffix run on an adopter
// produces the same report bytes as a straight run.
//
// # Per-subsystem state
//
// Each runtime package owns its portable type (the state is private):
//
//   - sim.Engine: clock, FIFO sequence and live/executed counters as
//     scalars; the heap as PortableEvent descriptors (cancelled entries
//     dropped). Tickers are not exported: the adopter builds them dormant
//     and attaches the adopted tick event.
//   - wcg.Server (PortableServer): the WUState and Assignment arenas in
//     allocation order with pointers as indices, the work queue, batch
//     buckets, deadline rings, trust streaks, outage spool, scheduler rng
//     and stats. The outage schedule and every bind-time policy value are
//     rebuilt by the adopter's Reset. Export requires the retained-arena
//     (pooled Reset) mode: the one-shot slab.Carve mode has no stable
//     allocation order.
//   - volunteer.ShardKernel (PortableKernel): every SoA column, the
//     population stream, the overlay, and each shard calendar flattened
//     into one event list plus window spans; the adopter rebuilds the
//     windows onto its own chunks. Chunk layout is unobservable — a window
//     is sorted by (time, seq) at its barrier. A multiplexed kernel's mux
//     columns are not covered, so grid co-runs cannot be snapshotted.
//   - faults.Plane (PortablePlane): the per-host attempt/epoch/upload
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
