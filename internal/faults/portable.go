package faults

import (
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

	spool      []portableSpooled
	spoolArmed bool

	attempt []int32
	epoch   []int32
	upSeq   []uint32

	churnCarry float64
	stats      Stats
}

// portableSpooled is a spooled result with its assignment as a portable
// allocation index (wcg.AssignmentIndex).
type portableSpooled struct {
	a       int32
	cpu     float64
	host    int32
	outcome wcg.Outcome
}

// Bytes estimates the portable plane's memory footprint for the
// snapshot_bytes accounting.
func (p *PortablePlane) Bytes() int {
	return snapshot.Size(p.spool) + snapshot.Size(p.attempt) + snapshot.Size(p.epoch) + snapshot.Size(p.upSeq)
}

// ExportPortable deep-copies the plane's mutable state into a portable
// snapshot. In-flight retry events travel as CallUploadRetry descriptors
// (the remaining budget, at most uploadRetries, in their one-byte slot), an
// armed spool drain as a CallSpoolDrain; the adopting plane handles both.
func (p *Plane) ExportPortable() *PortablePlane {
	ps := &PortablePlane{
		winIdx:         p.winIdx,
		outageNoted:    p.outageNoted,
		recoverPending: p.recoverPending,
		lastEnd:        p.lastEnd,
		spool:          make([]portableSpooled, len(p.spool)),
		spoolArmed:     p.spoolArmed,
		attempt:        snapshot.Clone(p.attempt),
		epoch:          snapshot.Clone(p.epoch),
		upSeq:          snapshot.Clone(p.upSeq),
		churnCarry:     p.churnCarry,
		stats:          p.Stats,
	}
	for i, sp := range p.spool {
		ps.spool[i] = portableSpooled{a: wcg.AssignmentIndex(sp.a), cpu: sp.cpu, host: sp.host, outcome: sp.outcome}
	}
	return ps
}

// AdoptPortable installs a portable plane snapshot into this plane,
// resolving spooled assignments with asAt against the adopting server's
// arena. The plane must have been Reset under the same (cfg, seed,
// horizon), so the recomputed window schedule matches the source's; only
// the cursor, the spool and the per-host tables transfer. Hooks stay nil —
// adopted forks run unprobed.
func (p *Plane) AdoptPortable(ps *PortablePlane, asAt func(int32) *wcg.Assignment) {
	p.winIdx = ps.winIdx
	p.outageNoted = ps.outageNoted
	p.recoverPending = ps.recoverPending
	p.lastEnd = ps.lastEnd
	p.spool = p.spool[:0]
	for _, sp := range ps.spool {
		p.spool = append(p.spool, spooled{a: asAt(sp.a), cpu: sp.cpu, host: sp.host, outcome: sp.outcome})
	}
	p.spoolArmed = ps.spoolArmed
	p.attempt = append(p.attempt[:0], ps.attempt...)
	p.epoch = append(p.epoch[:0], ps.epoch...)
	p.upSeq = append(p.upSeq[:0], ps.upSeq...)
	p.churnCarry = ps.churnCarry
	p.Stats = ps.stats
}
