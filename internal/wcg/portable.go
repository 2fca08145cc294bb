package wcg

import (
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Portable server snapshots (see the snapshot package doc): PortableServer
// owns every byte it holds and names arena objects by allocation index, so
// a different pooled server — which re-carves the same objects in the same
// order — can adopt it. Closure
// state (policy method values, drain closures, completion hooks) is never
// exported: the adopter re-binds it with the same Reset/bind machinery a
// fresh run uses, then resolves indices back to its own pointers.

// portableAssignment is an Assignment with its workunit pointer replaced
// by the workunit's arena index. The float leads so the record packs into
// 16 bytes.
type portableAssignment struct {
	issuedAt sim.Time
	wu       int32
	returned bool
	class    uint8
	proj     uint8
}

// portableWheel is one deadline class's ring with assignments as indices.
type portableWheel struct {
	dlq    []int32
	dlHead int
	armed  bool
}

// portableSpooled is a spooled result with its assignment as an index.
type portableSpooled struct {
	a       int32
	cpu     float64
	host    int32
	outcome Outcome
}

// PortableServer is a self-contained copy of a Server's mutable state at
// an event boundary. Safe to publish across goroutines; read-only once
// built.
type PortableServer struct {
	proj uint8

	wus []WUState            // arena contents in allocation order
	ass []portableAssignment // arena contents in allocation order

	queue []int32 // nilIndex for consumed (nil) slots
	qHead int

	schedRand rng.Source

	buckets    [][]int32
	bucketHead []int
	minBucket  int
	batchRank  []int
	nextRank   int

	nQueuedLive, nNeedy, qCache int

	wheels []portableWheel

	adStreak []int

	outIdx     int
	spool      []portableSpooled
	spoolArmed bool

	stats Stats
}

// NilIndex encodes a nil pointer slot in an index-translated slice.
const NilIndex = int32(-1)

// wuIndex returns st's portable allocation index (NilIndex for nil).
func wuIndex(st *WUState) int32 {
	if st == nil {
		return NilIndex
	}
	return st.idx
}

// Bytes estimates the portable server's memory footprint for the
// snapshot_bytes accounting.
func (p *PortableServer) Bytes() int {
	n := snapshot.Size(p.wus) + snapshot.Size(p.ass) +
		snapshot.Size(p.queue) + snapshot.Size(p.bucketHead) +
		snapshot.Size(p.batchRank) + snapshot.Size(p.adStreak) +
		snapshot.Size(p.spool)
	for i := range p.buckets {
		n += snapshot.Size(p.buckets[i])
	}
	for i := range p.wheels {
		n += snapshot.Size(p.wheels[i].dlq)
	}
	return n
}

// ExportPortable deep-copies the server's mutable state into a portable
// snapshot. The server must be in retained (pooled) allocation mode: the
// one-shot Carve mode has no stable allocation-index order to translate
// pointers against.
func (s *Server) ExportPortable() *PortableServer {
	if !s.retain {
		panic("wcg: portable export requires a retained (pooled) server")
	}
	nWU := s.wuArena.Allocated()
	nAs := s.asArena.Allocated()
	p := &PortableServer{proj: s.proj}
	p.wus = make([]WUState, nWU)
	for i := 0; i < nWU; i++ {
		p.wus[i] = *s.wuArena.At(i)
	}
	p.ass = make([]portableAssignment, nAs)
	for i := 0; i < nAs; i++ {
		a := s.asArena.At(i)
		p.ass[i] = portableAssignment{
			wu:       wuIndex(a.WU),
			issuedAt: a.IssuedAt,
			returned: a.returned,
			class:    a.class,
			proj:     a.proj,
		}
	}

	p.queue = make([]int32, len(s.queue))
	for i, st := range s.queue {
		p.queue[i] = wuIndex(st)
	}
	p.qHead = s.qHead
	p.schedRand = s.schedRand

	p.buckets = make([][]int32, len(s.buckets))
	for r := range s.buckets {
		b := make([]int32, len(s.buckets[r]))
		for i, st := range s.buckets[r] {
			b[i] = wuIndex(st)
		}
		p.buckets[r] = b
	}
	p.bucketHead = snapshot.Clone(s.bucketHead)
	p.minBucket = s.minBucket
	p.batchRank = snapshot.Clone(s.batchRank)
	p.nextRank = s.nextRank

	p.nQueuedLive, p.nNeedy, p.qCache = s.nQueuedLive, s.nNeedy, s.qCache

	p.wheels = make([]portableWheel, len(s.wheels))
	for k := range s.wheels {
		w := &s.wheels[k]
		dlq := make([]int32, len(w.dlq))
		for i, a := range w.dlq {
			dlq[i] = AssignmentIndex(a)
		}
		p.wheels[k] = portableWheel{dlq: dlq, dlHead: w.dlHead, armed: w.armed}
	}

	p.adStreak = snapshot.Clone(s.adStreak)

	p.outIdx = s.outIdx
	p.spool = make([]portableSpooled, len(s.spool))
	for i, sp := range s.spool {
		p.spool[i] = portableSpooled{a: AssignmentIndex(sp.a), cpu: sp.cpu, host: sp.host, outcome: sp.outcome}
	}
	p.spoolArmed = s.spoolArmed

	p.stats = s.Stats
	return p
}

// WUAt resolves a portable workunit index against this server's arena.
func (s *Server) WUAt(i int32) *WUState {
	if i == NilIndex {
		return nil
	}
	return s.wuArena.At(int(i))
}

// AssignmentAt resolves a portable assignment index against this server's
// arena.
func (s *Server) AssignmentAt(i int32) *Assignment {
	if i == NilIndex {
		return nil
	}
	return s.asArena.At(int(i))
}

// AdoptPortable installs a portable snapshot's state into this server.
// The server must have been Reset under the same configuration the source
// ran (policies, deadlines, outage windows), so everything bind-time —
// scheduler/validator method values, wheel count and deadlines, class
// tables — is already identical; this call rebuilds only the mutable
// state, allocating the same arena objects in the same order as the
// source and resolving the snapshot's indices against them.
func (s *Server) AdoptPortable(p *PortableServer) {
	if !s.retain {
		panic("wcg: portable adoption requires a retained (pooled) server")
	}
	s.proj = p.proj

	for i := range p.wus {
		st := s.allocWU()
		*st = p.wus[i]
	}
	for i := range p.ass {
		a := s.allocAssignment()
		pa := &p.ass[i]
		a.WU = s.WUAt(pa.wu)
		a.IssuedAt = pa.issuedAt
		a.returned = pa.returned
		a.class = pa.class
		a.proj = pa.proj
	}

	s.queue = s.queue[:0]
	for _, wi := range p.queue {
		s.queue = append(s.queue, s.WUAt(wi))
	}
	s.qHead = p.qHead
	s.schedRand = p.schedRand

	for len(s.buckets) < len(p.buckets) {
		s.buckets = append(s.buckets, nil)
		s.bucketHead = append(s.bucketHead, 0)
	}
	for r := range p.buckets {
		s.buckets[r] = s.buckets[r][:0]
		for _, wi := range p.buckets[r] {
			s.buckets[r] = append(s.buckets[r], s.WUAt(wi))
		}
		s.bucketHead[r] = p.bucketHead[r]
	}
	s.minBucket = p.minBucket
	s.batchRank = append(s.batchRank[:0], p.batchRank...)
	s.nextRank = p.nextRank

	s.nQueuedLive, s.nNeedy, s.qCache = p.nQueuedLive, p.nNeedy, p.qCache

	if len(s.wheels) != len(p.wheels) {
		panic("wcg: adopting server has a different deadline-class count — config mismatch")
	}
	for k := range p.wheels {
		w := &s.wheels[k]
		pw := &p.wheels[k]
		w.dlq = w.dlq[:0]
		for _, ai := range pw.dlq {
			w.dlq = append(w.dlq, s.AssignmentAt(ai))
		}
		w.dlHead = pw.dlHead
		w.armed = pw.armed
	}

	s.adStreak = s.adStreak[:0]
	s.adStreak = append(s.adStreak, p.adStreak...)

	s.outIdx = p.outIdx
	s.spool = s.spool[:0]
	for _, sp := range p.spool {
		s.spool = append(s.spool, spooled{a: s.AssignmentAt(sp.a), cpu: sp.cpu, host: sp.host, outcome: sp.outcome})
	}
	s.spoolArmed = p.spoolArmed
	if s.spoolArmed && s.spoolFn == nil {
		s.spoolFn = s.drainSpool
	}

	s.Stats = p.stats
}

// WheelDrainFn returns deadline class k's bound drain closure, for
// re-binding an adopted CallWheelDrain event.
func (s *Server) WheelDrainFn(k int) func() { return s.wheels[k].drainFn }

// SpoolDrainFn returns the bound spool-drain closure (binding it on first
// use, exactly as the live path does), for an adopted CallSpoolDrain event.
func (s *Server) SpoolDrainFn() func() {
	if s.spoolFn == nil {
		s.spoolFn = s.drainSpool
	}
	return s.spoolFn
}

// ApplyConfig swaps the configuration in force mid-run, at a fork point:
// on a context at (or adopted from) the snapshot, the forked cell's config
// replaces the shared prefix's before the suffix runs. Only fields whose
// effect is lazily read may differ from the config the prefix ran under —
// the quorum fields (refreshQuorum picks the change up at the next public
// entry, firing OnQuorumSwitch exactly as a straight run would) — and the
// outage schedule header is refreshed from the new config, which must
// describe the same windows. Everything resolved at bind time must be
// identical: Scheduler, Validator, DeadlinePolicy and Deadline are NOT
// re-bound here. The experiment layer's prefix grouping enforces these
// constraints on grouped scenarios.
func (s *Server) ApplyConfig(cfg Config) {
	checkConfig(cfg)
	s.cfg = cfg
	s.outages = cfg.Outages
}
