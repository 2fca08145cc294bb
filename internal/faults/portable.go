package faults

import (
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/wcg"
)

// PortablePlane is a self-contained copy of a fault plane's mutable state
// at an event boundary (see the snapshot package doc). The materialized
// outage schedule is not exported: it is a pure function of (cfg, seed,
// horizon), which the adopter's own Reset recomputes identically. Safe to
// publish across goroutines; read-only once built.
type PortablePlane struct {
	winIdx         int
	outageNoted    bool
	recoverPending bool
	lastEnd        float64

	attempt []int32
	epoch   []int32
	upSeq   []uint32

	churnCarry float64
	stats      Stats
}

// Bytes estimates the portable plane's memory footprint for the
// snapshot_bytes accounting.
func (p *PortablePlane) Bytes() int {
	return snapshot.Size(p.attempt) + snapshot.Size(p.epoch) + snapshot.Size(p.upSeq)
}

// ExportPortable deep-copies the plane's mutable state into a portable
// snapshot. In-flight retry events travel as CallUploadRetry descriptors;
// Config.Normalized bounds the retry budget to their one-byte slot.
func (p *Plane) ExportPortable() *PortablePlane {
	return &PortablePlane{
		winIdx:         p.winIdx,
		outageNoted:    p.outageNoted,
		recoverPending: p.recoverPending,
		lastEnd:        p.lastEnd,
		attempt:        snapshot.Clone(p.attempt),
		epoch:          snapshot.Clone(p.epoch),
		upSeq:          snapshot.Clone(p.upSeq),
		churnCarry:     p.churnCarry,
		stats:          p.Stats,
	}
}

// AdoptPortable installs a portable plane snapshot into this plane. The
// plane must have been Reset under the same (cfg, seed, horizon), so the
// recomputed window schedule matches the source's; only the cursor and
// per-host tables transfer. Hooks stay nil — adopted forks run unprobed.
func (p *Plane) AdoptPortable(ps *PortablePlane) {
	p.winIdx = ps.winIdx
	p.outageNoted = ps.outageNoted
	p.recoverPending = ps.recoverPending
	p.lastEnd = ps.lastEnd
	p.attempt = append(p.attempt[:0], ps.attempt...)
	p.epoch = append(p.epoch[:0], ps.epoch...)
	p.upSeq = append(p.upSeq[:0], ps.upSeq...)
	p.churnCarry = ps.churnCarry
	p.Stats = ps.stats
}

// ResolveCall rebuilds the closure an adopted engine event should run from
// its portable CallUploadRetry descriptor. Returns nil for calls the
// plane does not own.
func (p *Plane) ResolveCall(c sim.Call, asAt func(int32) *wcg.Assignment) func() {
	if c.Kind != sim.CallUploadRetry {
		return nil
	}
	return p.retryFn(asAt(c.A1), wcg.Outcome(c.K0), c.F0, int(c.A0), int(c.K1))
}
