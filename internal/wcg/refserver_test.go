package wcg

// A brute-force reference implementation of the middleware semantics —
// plain slices, O(n) scans, one engine timer per assignment, map-based
// trust state — used by the differential fuzz tests to check that the
// production server's policy implementations (bound method values, O(1)
// counters, per-class deadline wheels, dense streak table) compute
// exactly the same accounting. The reference implements the same policy
// *specifications*: FIFO / LIFO / strict batch seniority dispatch, the
// quorum-switch and adaptive-replication validation regimes, and
// per-duration deadline classes.

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/workunit"
)

const (
	refFIFO = iota
	refLIFO
	refBatch
)

type refWU struct {
	wu           workunit.Workunit
	batch        int
	outstanding  int
	validReturns int
	completed    bool
	queued       bool
}

type refAssignment struct {
	wu       *refWU
	issuedAt sim.Time
	returned bool
}

// refConfig mirrors the policy choices under test in plain data.
type refConfig struct {
	initialQuorum int
	steadyQuorum  int
	switchTime    sim.Time
	// deadline classes: classCut[i] is class i's RefSeconds upper bound,
	// classDeadline has one extra entry for the catch-all class.
	classCut      []float64
	classDeadline []float64
	sched         int // refFIFO / refLIFO / refBatch
	adaptive      bool
	threshold     int
}

type refServer struct {
	engine *sim.Engine
	cfg    refConfig

	queue     []*refWU    // in enqueue order; scanned per policy
	batchRank map[int]int // batch id → seniority rank (first-enqueue order)
	streak    map[int]int // host → valid-result streak (adaptive)

	stats Stats
}

func newRefServer(engine *sim.Engine, cfg refConfig) *refServer {
	return &refServer{
		engine:    engine,
		cfg:       cfg,
		batchRank: make(map[int]int),
		streak:    make(map[int]int),
	}
}

func (s *refServer) quorum() int {
	if s.engine.Now() < s.cfg.switchTime {
		return s.cfg.initialQuorum
	}
	return s.cfg.steadyQuorum
}

func (s *refServer) deadlineOf(w *refWU) float64 {
	for i, cut := range s.cfg.classCut {
		if w.wu.RefSeconds <= cut {
			return s.cfg.classDeadline[i]
		}
	}
	return s.cfg.classDeadline[len(s.cfg.classCut)]
}

func (s *refServer) needs(w *refWU) bool {
	return w.validReturns+w.outstanding < s.quorum()
}

func (s *refServer) maybeComplete(w *refWU) {
	if !w.completed && w.validReturns >= s.quorum() {
		s.complete(w)
	}
}

func (s *refServer) complete(w *refWU) {
	w.completed = true
	s.stats.Completed++
}

func (s *refServer) enqueue(w *refWU) {
	if w.queued || w.completed {
		return
	}
	w.queued = true
	if _, ok := s.batchRank[w.batch]; !ok {
		s.batchRank[w.batch] = len(s.batchRank)
	}
	s.queue = append(s.queue, w)
}

func (s *refServer) addWorkunit(wu workunit.Workunit, batch int) {
	s.enqueue(&refWU{wu: wu, batch: batch})
}

// scanOrder yields a snapshot of the queued workunits in the dispatch
// order of the policy under test: enqueue order (FIFO), reverse enqueue
// order (LIFO), or batch seniority with enqueue order inside a batch.
// Pointers, not indexes: the request scan dequeues entries as it visits
// them, which must not disturb the rest of the order.
func (s *refServer) scanOrder() []*refWU {
	order := append([]*refWU(nil), s.queue...)
	switch s.cfg.sched {
	case refLIFO:
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	case refBatch:
		sort.SliceStable(order, func(a, b int) bool {
			return s.batchRank[order[a].batch] < s.batchRank[order[b].batch]
		})
	}
	return order
}

// requestWork hands out one copy per the policy semantics: visit queued
// workunits in dispatch order, completing and dropping stale entries as
// they are encountered, and issue from the first one still needing a
// copy (it stays queued while it needs more).
func (s *refServer) requestWork() *refAssignment {
	for _, w := range s.scanOrder() {
		s.maybeComplete(w)
		if w.completed || !s.needs(w) {
			s.dequeue(w)
			continue
		}
		w.outstanding++
		if !s.needs(w) {
			s.dequeue(w)
		}
		s.stats.Sent++
		a := &refAssignment{wu: w, issuedAt: s.engine.Now()}
		deadline := s.deadlineOf(w)
		s.engine.ScheduleAfter(deadline, func() { s.timeout(a) })
		return a
	}
	return nil
}

func (s *refServer) dequeue(w *refWU) {
	for i, q := range s.queue {
		if q == w {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	w.queued = false
}

func (s *refServer) timeout(a *refAssignment) {
	if a.returned || a.wu.completed {
		return // returned in time (or moot): the timer is a no-op
	}
	s.stats.TimedOut++
	a.returned = true
	a.wu.outstanding--
	s.maybeComplete(a.wu)
	if !a.wu.completed {
		s.enqueue(a.wu)
	}
}

func (s *refServer) completeResult(a *refAssignment, outcome Outcome, cpuSeconds float64, host int) {
	if a.returned {
		s.stats.LateReturns++
	} else {
		a.returned = true
		a.wu.outstanding--
	}
	s.stats.Received++
	s.stats.CPUSeconds += cpuSeconds

	if outcome == OutcomeInvalid {
		s.stats.Invalid++
		s.stats.WastedSeconds += cpuSeconds
		if s.cfg.adaptive && host >= 0 {
			s.streak[host] = 0
		}
		if !a.wu.completed {
			s.enqueue(a.wu)
		}
		return
	}

	s.stats.Valid++
	trusted := false
	if s.cfg.adaptive && host >= 0 {
		trusted = s.streak[host] >= s.cfg.threshold
		s.streak[host]++
	}
	if a.wu.completed {
		s.stats.Wasted++
		s.stats.WastedSeconds += cpuSeconds
		return
	}
	a.wu.validReturns++
	s.stats.Useful++
	s.maybeComplete(a.wu)
	if trusted && !a.wu.completed {
		s.complete(a.wu)
	}
	if !a.wu.completed && s.needs(a.wu) {
		s.enqueue(a.wu)
	}
}

func (s *refServer) pendingCount() int {
	n := 0
	for _, w := range s.queue {
		if !w.completed {
			n++
		}
	}
	return n
}
