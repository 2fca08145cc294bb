package wcg

import (
	"fmt"
	"slices"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/snapshot"
)

// Portable server snapshots (see the snapshot package doc): PortableServer
// owns every byte it holds and names arena objects by allocation index. It
// carries only the arenas' live chunks, which a different server installs
// onto its own chunks under the same logical numbers, so every index
// resolves to the same object there. Closure state (policy method values,
// completion hooks) is never exported: the adopter re-binds it with the
// same Reset/bind machinery a fresh run uses, then resolves indices back
// to its own pointers. An adopted wheel drain needs no binding: its
// CallWheelDrain descriptor names the class, and the adopting server
// handles it.

// portableAssignment is an Assignment with its workunit pointer replaced
// by the workunit's arena index. The float leads so the record packs into
// 16 bytes.
type portableAssignment struct {
	issuedAt sim.Time
	wu       int32
	returned bool
	class    uint8
	proj     uint8
	hold     uint8
}

// portableWheel is one deadline class's ring with assignments as indices.
type portableWheel struct {
	dlq    []int32
	dlHead int
	armed  bool
}

// PortableServer is a self-contained copy of a Server's mutable state at
// an event boundary. Safe to publish across goroutines; read-only once
// built.
type PortableServer struct {
	proj uint8

	wus slab.Portable[WUState]            // the workunit arena's live chunks
	ass slab.Portable[portableAssignment] // the copy arena's live chunks

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
	n := p.wus.Bytes() + p.ass.Bytes() +
		snapshot.Size(p.queue) + snapshot.Size(p.bucketHead) +
		snapshot.Size(p.batchRank) + snapshot.Size(p.adStreak)
	for i := range p.buckets {
		n += snapshot.Size(p.buckets[i])
	}
	for i := range p.wheels {
		n += snapshot.Size(p.wheels[i].dlq)
	}
	return n
}

// ExportPortable deep-copies the server's mutable state into a portable
// snapshot, the arenas as their live chunks.
func (s *Server) ExportPortable() *PortableServer {
	p := &PortableServer{proj: s.proj}
	p.wus = slab.Export(&s.wuArena, func(st *WUState) WUState { return *st })
	p.ass = slab.Export(&s.asArena, func(a *Assignment) portableAssignment {
		return portableAssignment{
			wu:       a.WU.idx,
			issuedAt: a.IssuedAt,
			returned: a.returned,
			class:    a.class,
			proj:     a.proj,
			hold:     a.hold,
		}
	})

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
// ran (policies, deadlines), so everything bind-time — scheduler/validator
// method values, wheel count and deadlines, class tables — is already
// identical; this call rebuilds only the mutable state, installing the
// snapshot's live chunks onto the arenas under their logical numbers and
// resolving the snapshot's indices against them.
func (s *Server) AdoptPortable(p *PortableServer) {
	s.proj = p.proj

	slab.Adopt(&s.wuArena, &p.wus, func(st, src *WUState, _ int) { *st = *src })
	slab.Adopt(&s.asArena, &p.ass, func(a *Assignment, pa *portableAssignment, i int) {
		*a = Assignment{
			WU:       s.WUAt(pa.wu),
			IssuedAt: pa.issuedAt,
			idx:      int32(i),
			returned: pa.returned,
			class:    pa.class,
			proj:     pa.proj,
			hold:     pa.hold,
		}
	})

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
	s.Stats = p.stats
}

// ApplyConfig swaps the configuration in force mid-run, at a fork point:
// on a context at (or adopted from) the snapshot, the forked cell's config
// replaces the shared prefix's before the suffix runs. Only fields whose
// effect is lazily read may differ from the config the prefix ran under —
// the quorum fields (refreshQuorum picks the change up at the next public
// entry, firing OnQuorumSwitch exactly as a straight run would). What
// Reset binds is not re-bound, so a change to Deadline, Scheduler,
// Validator or DeadlinePolicy panics, naming the field, before the config
// in force changes. Policies compare resolved (nil is the default) and
// without allocating; DeadlineClasses class by class, as == would panic.
func (s *Server) ApplyConfig(cfg Config) {
	checkConfig(cfg)
	sched, val, dl := cfg.policies()
	was, wasVal, wasDl := s.cfg.policies()
	classes, isClasses := dl.(DeadlineClasses)
	wasClasses, wasIsClasses := wasDl.(DeadlineClasses)
	switch {
	case cfg.Deadline != s.cfg.Deadline:
		panic(fmt.Sprintf("wcg: a fork cannot change Deadline (%v to %v s): Reset binds it", s.cfg.Deadline, cfg.Deadline))
	case sched != was:
		panic(fmt.Sprintf("wcg: a fork cannot change Scheduler (%v to %v): Reset binds it", was, sched))
	case val != wasVal:
		panic(fmt.Sprintf("wcg: a fork cannot change Validator (%v to %v): Reset binds it", wasVal, val))
	case isClasses != wasIsClasses || !slices.Equal(classes, wasClasses):
		panic(fmt.Sprintf("wcg: a fork cannot change DeadlinePolicy (%v to %v): Reset binds it", wasDl, dl))
	}
	s.cfg = cfg
}
