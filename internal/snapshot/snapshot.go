// Package snapshot provides the building blocks for in-memory snapshots
// of a full run context: capture the mutable state of every subsystem at
// an event boundary, run a what-if suffix to completion, then restore the
// state byte-exactly and run the next suffix. A prefix shared by many
// sweep cells is paid for once.
//
// # Model
//
// Snapshots come in two strengths.
//
// An *in-place* snapshot (Capture/Restore, the Slice type below) is a
// restore point, not an independent copy. The live run context is full of
// closures (scheduled events, policy method values, completion hooks)
// that capture pointers to the live server, hosts and tenant; the
// in-place path sidesteps them entirely by copying mutable state *out*
// into passive buffers and back *in* to the same objects before each
// fork. Suffixes forked from one context therefore run sequentially on
// that context; what is guaranteed is that after a restore the context is
// byte-indistinguishable from the moment of capture.
//
// A *portable* snapshot (Materialize / project.Runner.AdoptSnapshot)
// upgrades those same passive buffers into a self-contained value that a
// different pooled run context can adopt, so the suffixes of one prefix
// can race on every core. The contract splits the state three ways:
//
//   - Copies: mutable POD state — SoA columns, queues, tables, counters,
//     rng sources, histogram bins — is deep-copied into buffers the
//     portable snapshot owns. Nothing aliases the source context, so the
//     source keeps running (on to the next divergence group) while any
//     number of adopters read the snapshot concurrently.
//   - Translates: intra-run pointers (*WUState, *Assignment, hosts) are
//     rewritten as arena/slice indices at capture and resolved against
//     the adopter's own arenas — which, having replayed the same
//     deterministic allocation sequence, carve the same objects in the
//     same order (slab.Arena.At).
//   - Re-binds: everything with a closure environment is never copied at
//     all. The adopter first rebuilds immutable structure with the same
//     Reset/prepare/bind machinery a fresh run uses (policy method
//     values, completion hooks, batch plans, fault windows), then revives
//     the schedule from portable descriptors: every scheduled event
//     carries a sim.Call tag naming its kind and small arguments, and
//     the adopting subsystems rebuild equivalent closures bound to their
//     own objects (sim.Engine.AdoptEvent, dormant tickers). An untagged
//     event makes ExportEvents fail and the caller falls back to the
//     sequential in-place path — portability is verified, not assumed.
//
// After adoption the target context is observably byte-identical to the
// source at the capture point: same clock, same (time, seq) event order,
// same rng streams, same counters. A forked suffix run on an adopter
// produces the same report bytes as one run on the source.
//
// # The slice rule
//
// Almost all mutable state in this codebase lives in Go slices owned by
// long-lived structs. For each one the snapshot saves the slice header
// (pointer, len, cap) plus a private copy of the contents up to len.
// Restore copies the saved contents back into the *original* backing
// array over [0, len) and reassigns the saved header. Consequences:
//
//   - If the suffix appended past the captured capacity, the owner holds
//     a new backing array; restore abandons it and revives the original.
//   - Elements beyond the captured len in the original backing array may
//     hold stale suffix-era data. That is unobservable: every consumer
//     reads only [0, len), and appends overwrite before any read. (For
//     pointer elements the stale entries can keep dead objects reachable
//     until overwritten — a bounded, accepted cost.)
//   - Two captured slices that alias the same backing array are restored
//     consistently: both copies were taken at the same instant, so the
//     double-write lands identical bytes.
//
// # Per-subsystem copy/aliasing contract
//
// Each runtime package owns its snapshot type (the state is private);
// this package only supplies the generic slice helper. The contract per
// captured subsystem:
//
//   - sim.Engine (sim.EngineSnapshot): the event heap and free list
//     follow the slice rule; the event arena is copied chunk-wise up to
//     its allocation mark and restored by copying the chunks back,
//     zeroing the dirty region the suffix allocated beyond the mark, and
//     rewinding the cursor (slab.ArenaSnapshot). Because *every* Event
//     struct is carved from this arena, the content restore revives all
//     pre-snapshot events — ticker events included — byte-exactly,
//     closure pointers and all. Closure environments allocated before the
//     snapshot stay GC-live via the saved event copies; events the suffix
//     scheduled land beyond the mark and are wiped by the zeroing.
//     Tickers themselves are stable heap objects; only their stopped flag
//     is saved (sim.TickerState).
//   - wcg.Server (wcg.ServerSnapshot): config copied by value; work
//     queue, per-rank batch buckets, deadline wheels, anonymous-host
//     streak table and upload spool follow the slice rule; the workunit
//     and assignment arenas are chunk-copied like the engine's, which
//     preserves the identity of every *WorkUnit / *Assignment pointer
//     held by queues, hosts or in-flight events. The outage-window
//     schedule is immutable during a run and shared, not copied. Snapshot
//     requires the retained-arena (pooled Reset) mode: the one-shot
//     slab.Carve mode hands chunks back to the GC and cannot be rewound.
//   - volunteer.ShardKernel (volunteer.KernelSnapshot): every SoA column
//     follows the slice rule, as do the current window's sorted merge
//     buffers, the refill queues and the overlay. The future windows of
//     each shard calendar live in fixed-size chunks recycled through a
//     per-shard free list; a capture flattens every pending window into
//     one event list per shard, and a restore (or adoption) hands the live
//     chunks back to the free list and rebuilds the windows from that list.
//     Chunk layout is unobservable — a window is sorted by (time, seq) at
//     its barrier — so the rebuilt calendar is equivalent to the captured
//     one. The spawn-seed stream is a value-copied rng.Source; the
//     SpawnHint callback is captured as a func value because the drain
//     phase nils it.
//   - faults.Plane (faults.PlaneSnapshot): per-host attempt/epoch/upload
//     tables follow the slice rule; the window cursor, churn accumulator
//     and stats are value copies. The materialized outage schedule is
//     immutable during a run and shared.
//   - credit.Ledger (credit.LedgerSnapshot) and stats.Histogram
//     (stats.HistogramSnapshot): dense arrays under the slice rule plus
//     the private counters. stats.Series is fully exported and captured
//     directly by its owner.
//   - project tenant state (captured by the Runner fork path): config and
//     report copied by value; batches, dispatch order, weekly series and
//     snapshot list follow the slice rule. A batch's slice plan is built
//     once in prepare and immutable afterwards, so plan headers are saved
//     but plan contents are shared, not copied. Report snapshots'
//     PerBatch arrays are freshly allocated at capture time and immutable
//     afterwards — shared.
//
// Snapshots are in-memory only and are never persisted; checkpoint files
// continue to record finished cells, not mid-run state.
package snapshot

import "unsafe"

// Slice captures one Go slice per the slice rule above: the header at
// capture time plus a private copy of the contents up to len. The private
// buffer is reused across captures, so a Slice that is captured and
// restored repeatedly (one snapshot per prefix group) allocates only when
// the captured length grows past its high-water mark.
type Slice[T any] struct {
	live []T // header as captured
	data []T // private copy of live[0:len]
}

// Capture saves s's header and copies its contents.
func (c *Slice[T]) Capture(s []T) {
	c.live = s
	c.data = append(c.data[:0], s...)
}

// Restore copies the saved contents back into the captured backing array
// over [0, len) and returns the saved header for the owner to reassign.
func (c *Slice[T]) Restore() []T {
	copy(c.live, c.data)
	return c.live
}

// Len returns the captured length.
func (c *Slice[T]) Len() int { return len(c.data) }

// Materialize returns a freshly allocated copy of the captured contents.
// Unlike Restore it does not touch (or alias) the captured backing array,
// so the result is safe to publish to another run context while the
// source runs on. This is the bridge from an in-place capture to a
// portable snapshot.
func (c *Slice[T]) Materialize() []T {
	if len(c.data) == 0 {
		return nil
	}
	out := make([]T, len(c.data))
	copy(out, c.data)
	return out
}

// Clone returns a freshly allocated copy of s — the portable counterpart
// of the slice rule for state that is deep-copied directly off the live
// structures rather than through a Slice capture.
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
