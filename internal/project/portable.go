package project

import (
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/volunteer"
	"repro/internal/wcg"
)

// Portable run-context state: the PortableSnapshot a Runner materializes
// and adopts. fork.go states the contract and the Runner lifecycle.

// portableBatch is the mutable slice of a batch: everything else
// (receptor, cost, total, plan) is rebuilt by prepare from the config.
type portableBatch struct {
	remaining int
	doneRef   float64
}

// portableTenant is a self-contained copy of a tenant's run state. The
// batch array, release order, slicing plans and report skeleton are not
// exported: prepare() rebuilds them deterministically from the config.
type portableTenant struct {
	batches []portableBatch

	next, outstanding int

	weeklyCPU   []float64
	weeklyCount []int64

	done     bool
	doneWeek float64
	snapIdx  int
	coCPU    float64
	obsPhase string

	snaps []Snapshot // Figure 7 captures so far, PerBatch deep-copied
	hist  stats.PortableHistogram
}

func exportTenant(t *tenant) portableTenant {
	pt := portableTenant{
		batches:     make([]portableBatch, len(t.batches)),
		next:        t.next,
		outstanding: t.outstanding,
		weeklyCPU:   snapshot.Clone(t.weeklyCPU),
		weeklyCount: snapshot.Clone(t.weeklyCount),
		done:        t.done,
		doneWeek:    t.doneWeek,
		snapIdx:     t.snapIdx,
		coCPU:       t.coCPU,
		obsPhase:    t.obsPhase,
		snaps:       make([]Snapshot, len(t.report.Snapshots)),
		hist:        t.report.ReportedHours.ExportPortable(),
	}
	for i := range t.batches {
		pt.batches[i] = portableBatch{remaining: t.batches[i].remaining, doneRef: t.batches[i].doneRef}
	}
	for i, s := range t.report.Snapshots {
		s.PerBatch = snapshot.Clone(s.PerBatch)
		pt.snaps[i] = s
	}
	return pt
}

// adoptTenant installs the portable state into a tenant that prepare()
// and bind() have just armed under the snapshot's config, so the batch
// array and release order already match the source's.
func adoptTenant(t *tenant, pt *portableTenant) {
	for i := range pt.batches {
		t.batches[i].remaining = pt.batches[i].remaining
		t.batches[i].doneRef = pt.batches[i].doneRef
	}
	t.next, t.outstanding = pt.next, pt.outstanding
	t.weeklyCPU = append(t.weeklyCPU[:0], pt.weeklyCPU...)
	t.weeklyCount = append(t.weeklyCount[:0], pt.weeklyCount...)
	t.done, t.doneWeek, t.snapIdx, t.coCPU = pt.done, pt.doneWeek, pt.snapIdx, pt.coCPU
	t.obsPhase = pt.obsPhase
	snaps := t.report.Snapshots[:0]
	for _, s := range pt.snaps {
		s.PerBatch = snapshot.Clone(s.PerBatch) // adopter-owned; ps stays shared
		snaps = append(snaps, s)
	}
	t.report.Snapshots = snaps
	t.report.ReportedHours.AdoptPortable(pt.hist)
}

func (pt *portableTenant) bytes() int {
	n := snapshot.Size(pt.batches) + snapshot.Size(pt.weeklyCPU) +
		snapshot.Size(pt.weeklyCount) + pt.hist.Bytes()
	for i := range pt.snaps {
		n += snapshot.Size(pt.snaps[i].PerBatch)
	}
	return n
}

// PortableSnapshot is a self-contained capture of one campaign run
// context at an event boundary: the configuration, the engine's counters,
// the one event schedule (the engine's heap and the host kernel's pending
// continuations, as sim.Call descriptors), and every subsystem's portable
// columns. Safe to publish across goroutines; read-only once built.
type PortableSnapshot struct {
	cfg Config

	eng    sim.Counters
	events []sim.PortableEvent

	server *wcg.PortableServer
	kern   *volunteer.PortableKernel
	plane  *faults.PortablePlane
	ten    portableTenant
}

// Bytes estimates the snapshot's memory footprint (slice payloads; the
// fixed struct headers are noise next to them).
func (ps *PortableSnapshot) Bytes() int {
	n := snapshot.Size(ps.events) + ps.server.Bytes() + ps.kern.Bytes() + ps.ten.bytes()
	if ps.plane != nil {
		n += ps.plane.Bytes()
	}
	return n
}

// Materialize captures the current run context as a portable snapshot,
// holds it as the snapshot Fork and Restore return to, and returns it for
// other Runners to adopt. The run must be unprobed and mid-run — between
// Begin/RunTo calls, at an event boundary. A non-nil error means the
// schedule holds an event that cannot be revived (an untagged event): a
// programming error the snapshot tests catch, which leaves the held
// snapshot unchanged.
func (r *Runner) Materialize() (*PortableSnapshot, error) {
	c := r.c
	if c.t.cfg.Probe != nil {
		panic("project: snapshot/fork requires an unprobed run")
	}
	events, err := c.engine.ExportEvents()
	if err != nil {
		return nil, err
	}
	ps := &PortableSnapshot{cfg: c.t.cfg, eng: c.engine.Counters(), server: c.t.server.ExportPortable()}
	ps.kern, ps.events = c.kern.ExportPortable(events)
	if plane := c.activePlane(); plane != nil {
		ps.plane = plane.ExportPortable()
	}
	ps.ten = exportTenant(&c.t)
	r.ps, r.atSnap = ps, true
	return ps, nil
}

// AdoptSnapshot rebuilds the captured run context inside this Runner's
// own pooled arenas and holds ps as the Runner's snapshot: a Reset under
// the snapshot's config re-creates the immutable structure (batches,
// policies, wheels, outage windows) and re-binds every closure, the
// portable state is installed over it, and each event of the schedule is
// handed by its kind to its handler on the adopter: the server, the fault
// plane, the host kernel (which decides where a continuation waits) or a
// ticker armed with the adopted tick. Afterwards the Runner is exactly
// where the publisher stood at Materialize time — Fork/RunTo continue from
// there, byte-identical to the publisher doing the same.
func (r *Runner) AdoptSnapshot(ps *PortableSnapshot) {
	r.rearm(ps.cfg)
	c := r.c
	c.t.prepare()
	c.t.bind()
	adoptTenant(&c.t, &ps.ten)

	c.t.server.AdoptPortable(ps.server)
	asAt := c.t.server.AssignmentAt
	c.kern.AdoptPortable(ps.kern, asAt)
	plane := c.activePlane()
	if plane != nil {
		plane.AdoptPortable(ps.plane, asAt)
	}

	// Adopted runs are unprobed, so there is no sampler; each ticker is
	// armed with its adopted tick in place of a first one, and an
	// assignment in a descriptor resolves against the adopter's server.
	c.weekly, c.daily, c.churn, c.sampler = nil, nil, nil, nil
	c.engine.AdoptState(ps.eng)
	for _, pe := range ps.events {
		switch pe.Call.Kind {
		case sim.CallTickWeekly:
			c.weekly = c.engine.AdoptTicker(pe, sim.Week, c.weeklyTick)
		case sim.CallTickDaily:
			c.daily = c.engine.AdoptTicker(pe, sim.Day, c.dailyTick)
		case sim.CallTickChurn:
			c.churn = c.engine.AdoptTicker(pe, faults.ChurnInterval, c.churnTick)
		case sim.CallWheelDrain:
			c.engine.AdoptEvent(pe, c.t.server, nil)
		case sim.CallSpoolDrain:
			c.engine.AdoptEvent(pe, plane, nil)
		case sim.CallUploadRetry:
			c.engine.AdoptEvent(pe, plane, asAt(pe.Call.A1))
		case sim.CallHost:
			c.kern.AdoptEvent(pe, asAt(pe.Call.A1))
		default:
			panic("project: adopted event of a kind no handler takes")
		}
	}
	r.ps, r.atSnap = ps, true
}
