// Grid policies: the pluggable mechanisms of the middleware.
//
// The paper's campaign is one fixed point in policy space — FIFO dispatch,
// a single quorum 2→1 switch, one server-wide deadline. The Scheduler,
// Validator and DeadlinePolicy interfaces turn each of those mechanisms
// into a configuration choice, so the scenario catalog can vary the
// *mechanism*, not just its parameters, without forking the engine.
//
// # Binding contract
//
// A policy is bound to a server once, at NewServer or Reset time: its bind
// method resolves the policy to concrete method values and plain state on
// the Server struct. The per-transaction hot path therefore pays no
// interface dispatch — RequestWork and Complete call bound func values and
// check plain fields, exactly as the hardcoded mechanisms did. Policy
// values themselves carry parameters only (a seed, a threshold, a class
// table); all run state lives in the Server and is retained across Reset
// like every other arena (see the package-level Reset contract).
//
// The bind methods are unexported: policy implementations live in this
// package, next to the counters and rings they must keep exact.
package wcg

import (
	"fmt"

	"repro/internal/rng"
)

// Scheduler selects the order queued workunits are dispatched in.
// The zero value of every implementation is ready to use; nil in
// Config.Scheduler means FIFOScheduler (the production order).
type Scheduler interface {
	fmt.Stringer
	bindScheduler(s *Server)
}

// Validator selects the validation regime: how many results, from whom,
// complete a workunit. nil in Config.Validator means QuorumValidator.
type Validator interface {
	fmt.Stringer
	bindValidator(s *Server)
}

// DeadlinePolicy selects the reissue-deadline regime. nil in
// Config.DeadlinePolicy means UniformDeadline (one class at
// Config.Deadline).
type DeadlinePolicy interface {
	fmt.Stringer
	bindDeadline(s *Server)
}

// --- Schedulers ---

// FIFOScheduler dispatches workunits in the order they were enqueued —
// the production policy: a workunit stays at the queue head while it
// needs more copies out.
type FIFOScheduler struct{}

func (FIFOScheduler) String() string { return "fifo" }

func (FIFOScheduler) bindScheduler(s *Server) {
	s.schedNext = s.fifoNext
	s.schedPush = s.queuePush
	s.schedEach = s.queueEach
}

// LIFOScheduler dispatches the most recently enqueued workunit first: the
// queue is a stack. Freshly released batches preempt older ones, so the
// oldest work starves until the release stream dries up — the adversarial
// mirror of the production order.
type LIFOScheduler struct{}

func (LIFOScheduler) String() string { return "lifo" }

func (LIFOScheduler) bindScheduler(s *Server) {
	s.schedNext = s.lifoNext
	s.schedPush = s.queuePush
	s.schedEach = s.queueEach
}

// RandomScheduler dispatches a uniformly random queued workunit, drawn
// from its own seeded stream — deterministic in Seed, independent of the
// host population's streams.
type RandomScheduler struct {
	Seed uint64
}

func (RandomScheduler) String() string { return "random" }

func (r RandomScheduler) bindScheduler(s *Server) {
	rng.NewInto(&s.schedRand, r.Seed)
	s.schedNext = s.randNext
	s.schedPush = s.queuePush
	s.schedEach = s.queueEach
}

// BatchPriorityScheduler dispatches strictly by batch seniority: all
// copies of the earliest-released batch still needing work go out before
// anything from a later batch (FIFO within a batch). Reissues of an old
// batch preempt newer batches, so the campaign finishes what it started
// first — the policy that minimizes in-flight batches.
type BatchPriorityScheduler struct{}

func (BatchPriorityScheduler) String() string { return "batch-priority" }

func (BatchPriorityScheduler) bindScheduler(s *Server) {
	s.schedNext = s.batchNext
	s.schedPush = s.batchPush
	s.schedEach = s.batchEach
}

// --- Validators ---

// QuorumValidator is the production regime driven by the Config quorum
// fields: comparison validation at InitialQuorum until QuorumSwitchTime,
// then value-checked results at SteadyQuorum (§5.1/§5.2).
type QuorumValidator struct{}

func (QuorumValidator) String() string { return "quorum-switch" }

func (QuorumValidator) bindValidator(s *Server) {
	s.adaptiveOn = false
	s.adThreshold = 0
}

// AdaptiveValidator layers BOINC-style adaptive replication on top of the
// quorum regime: a host whose streak of valid results has reached Streak
// becomes trusted, and a valid result from a trusted host completes a
// workunit alone — per-host quorum 1 — while untrusted hosts still need
// the quorum in force. An invalid result resets the host's streak to
// zero, so saboteur cohorts never earn trust for long.
//
// Trust state is per server run (cleared by Reset) and keyed by the host
// identity passed to CompleteFrom; results reported without a host
// identity (Complete) never earn or use trust.
type AdaptiveValidator struct {
	// Streak is the number of consecutive valid results a host must
	// return before its results validate alone. Must be ≥ 1.
	Streak int
}

func (v AdaptiveValidator) String() string { return fmt.Sprintf("adaptive-%d", v.Streak) }

func (v AdaptiveValidator) bindValidator(s *Server) {
	if v.Streak < 1 {
		panic("wcg: AdaptiveValidator.Streak must be at least 1")
	}
	s.adaptiveOn = true
	s.adThreshold = v.Streak
}

// --- Deadline policies ---

// UniformDeadline is the production regime: one deadline class for every
// workunit, at Config.Deadline. This is the single-wheel fast path.
type UniformDeadline struct{}

func (UniformDeadline) String() string { return "uniform" }

func (UniformDeadline) bindDeadline(s *Server) {
	s.sizeWheels(1)
	s.wheels[0].deadline = s.cfg.Deadline
	s.classCut = s.classCut[:0]
	s.classFn = nil
}

// DeadlineClass is one band of a DeadlineClasses policy: workunits whose
// reference duration is at most MaxRefSeconds (and above every earlier
// class's bound) are reissued after Deadline.
type DeadlineClass struct {
	// MaxRefSeconds is the class's upper bound on workunit reference
	// seconds. The last class is the catch-all; its bound is ignored.
	MaxRefSeconds float64
	// Deadline is how long a copy of this class may stay out. Must be
	// positive.
	Deadline float64
}

// DeadlineClasses partitions workunits into a small number of deadline
// classes by reference duration, each served by its own exact deadline
// wheel: short workunits can be reclaimed aggressively while long ones
// keep a lenient deadline, and every timeout still fires at exactly
// IssuedAt+class deadline. Classes must be listed in increasing
// MaxRefSeconds order.
type DeadlineClasses []DeadlineClass

func (d DeadlineClasses) String() string { return fmt.Sprintf("classes-%d", len(d)) }

func (d DeadlineClasses) bindDeadline(s *Server) {
	if len(d) == 0 {
		panic("wcg: DeadlineClasses needs at least one class")
	}
	if len(d) > 256 {
		panic("wcg: too many deadline classes")
	}
	for i, c := range d {
		if c.Deadline <= 0 {
			panic("wcg: deadline class with non-positive deadline")
		}
		if i+1 < len(d) && (c.MaxRefSeconds <= 0 || (i > 0 && c.MaxRefSeconds <= d[i-1].MaxRefSeconds)) {
			panic("wcg: deadline class bounds must be positive and increasing")
		}
	}
	s.sizeWheels(len(d))
	s.classCut = s.classCut[:0]
	for i, c := range d {
		s.wheels[i].deadline = c.Deadline
		if i+1 < len(d) {
			s.classCut = append(s.classCut, c.MaxRefSeconds)
		}
	}
	s.classFn = s.classOf
}

// policies returns the configured policies with nil resolved to the
// production defaults.
func (c *Config) policies() (Scheduler, Validator, DeadlinePolicy) {
	sched, val, dl := c.Scheduler, c.Validator, c.DeadlinePolicy
	if sched == nil {
		sched = FIFOScheduler{}
	}
	if val == nil {
		val = QuorumValidator{}
	}
	if dl == nil {
		dl = UniformDeadline{}
	}
	return sched, val, dl
}

// bindPolicies resolves the configured policies (or their production
// defaults) into the server's bound method values and plain state. Called
// from NewServer and Reset, after checkConfig; the scheduler's shared
// structures (queue, buckets) must already be empty.
func (s *Server) bindPolicies() {
	sched, val, dl := s.cfg.policies()
	sched.bindScheduler(s)
	val.bindValidator(s)
	dl.bindDeadline(s)
}

// --- Scheduler implementations (bound as method values) ---

// queuePush appends to the shared work queue: the FIFO, LIFO and random
// schedulers all enqueue at the tail and differ only in what they take.
func (s *Server) queuePush(st *WUState) {
	s.queue = append(s.queue, st)
}

// queueEach visits every workunit in the shared queue (quorum recount).
func (s *Server) queueEach(fn func(*WUState)) {
	for i := s.qHead; i < len(s.queue); i++ {
		if st := s.queue[i]; st != nil {
			fn(st)
		}
	}
}

// issueVerdict is the outcome of the shared issue protocol for one
// scan candidate.
type issueVerdict int

const (
	// issueDiscard: the candidate is stale (completed or fully
	// subscribed) — remove it and keep scanning.
	issueDiscard issueVerdict = iota
	// issueConsume: a copy was issued and the workunit is now fully
	// subscribed — remove it and return it.
	issueConsume
	// issueKeep: a copy was issued and the workunit still needs more
	// copies (quorum > 1) — leave it in place and return it.
	issueKeep
)

// issueProtocol is the invariant-critical core every scheduler's take
// loop runs on a candidate: complete it if the quorum in force already
// allows, discard it when stale, otherwise issue one copy and decide
// whether it stays in the scheduler's structure. The counter updates
// live here (and in the caller's removal primitive, which re-syncs after
// clearing the queued flag) so the four schedulers cannot drift apart.
func (s *Server) issueProtocol(st *WUState) issueVerdict {
	s.maybeComplete(st)
	if st.Completed || !s.needsCopies(st) {
		return issueDiscard
	}
	st.outstanding++
	if !s.needsCopies(st) {
		return issueConsume
	}
	s.syncCounts(st)
	return issueKeep
}

// fifoNext takes the next copy to issue in FIFO order: scan from the
// queue head, dropping stale entries; a workunit that still needs more
// copies after this issue stays at the head.
func (s *Server) fifoNext() *WUState {
	for s.qHead < len(s.queue) {
		st := s.queue[s.qHead]
		if st == nil {
			s.dequeueHead(nil)
			continue
		}
		switch s.issueProtocol(st) {
		case issueDiscard:
			s.dequeueHead(st)
		case issueConsume:
			s.dequeueHead(st)
			return st
		default:
			return st
		}
	}
	return nil
}

// popTail removes the queue's tail entry (LIFO consumption).
func (s *Server) popTail(st *WUState) {
	n := len(s.queue) - 1
	s.queue[n] = nil
	s.queue = s.queue[:n]
	s.unqueue(st)
}

// lifoNext takes the next copy in LIFO order: the queue is a stack, and a
// workunit still needing copies stays on top.
func (s *Server) lifoNext() *WUState {
	for len(s.queue) > 0 {
		st := s.queue[len(s.queue)-1]
		switch s.issueProtocol(st) {
		case issueDiscard:
			s.popTail(st)
		case issueConsume:
			s.popTail(st)
			return st
		default:
			return st
		}
	}
	return nil
}

// swapRemove removes queue[i] by moving the tail into its slot — the
// random scheduler keeps the queue dense so a uniform index draw is a
// uniform workunit draw.
func (s *Server) swapRemove(i int, st *WUState) {
	n := len(s.queue) - 1
	s.queue[i] = s.queue[n]
	s.queue[n] = nil
	s.queue = s.queue[:n]
	s.unqueue(st)
}

// randNext takes a uniformly random queued workunit. Stale entries are
// discarded as they are drawn, so each loop iteration either issues or
// shrinks the queue — O(1) amortized like the other schedulers.
func (s *Server) randNext() *WUState {
	for {
		n := len(s.queue)
		if n == 0 {
			return nil
		}
		i := s.schedRand.Intn(n)
		st := s.queue[i]
		switch s.issueProtocol(st) {
		case issueDiscard:
			s.swapRemove(i, st)
		case issueConsume:
			s.swapRemove(i, st)
			return st
		default:
			return st
		}
	}
}

// batchPush enqueues into the per-batch bucket, assigning each batch its
// seniority rank (first-enqueue order) the first time it appears.
func (s *Server) batchPush(st *WUState) {
	b := int(st.Batch)
	for len(s.batchRank) <= b {
		s.batchRank = append(s.batchRank, 0)
	}
	if s.batchRank[b] == 0 {
		s.nextRank++
		s.batchRank[b] = s.nextRank
		for len(s.buckets) < s.nextRank {
			s.buckets = append(s.buckets, nil)
			s.bucketHead = append(s.bucketHead, 0)
		}
	}
	r := s.batchRank[b] - 1
	s.buckets[r] = append(s.buckets[r], st)
	if r < s.minBucket {
		s.minBucket = r
	}
}

// batchEach visits every bucketed workunit (quorum recount).
func (s *Server) batchEach(fn func(*WUState)) {
	for r := range s.buckets {
		q := s.buckets[r]
		for i := s.bucketHead[r]; i < len(q); i++ {
			if st := q[i]; st != nil {
				fn(st)
			}
		}
	}
}

// consumeBucketHead removes the head entry of the bucket at rank r,
// keeping the queued flag, counters and consumed-prefix compaction in
// sync — the bucketed analog of dequeueHead.
func (s *Server) consumeBucketHead(r int, st *WUState) {
	h := s.bucketHead[r]
	s.buckets[r][h] = nil
	s.bucketHead[r] = h + 1
	if st != nil {
		s.unqueue(st)
	}
	s.buckets[r], s.bucketHead[r] = compactPrefix(s.buckets[r], s.bucketHead[r])
}

// batchNext takes the next copy in strict batch-seniority order: FIFO
// within the most senior bucket that still has live entries. minBucket
// only moves backward on a push to a more senior bucket, so the forward
// scan is amortized by the pushes that reset it.
func (s *Server) batchNext() *WUState {
	for s.minBucket < len(s.buckets) {
		r := s.minBucket
		if s.bucketHead[r] >= len(s.buckets[r]) {
			clear(s.buckets[r])
			s.buckets[r] = s.buckets[r][:0]
			s.bucketHead[r] = 0
			s.minBucket++
			continue
		}
		st := s.buckets[r][s.bucketHead[r]]
		if st == nil {
			s.consumeBucketHead(r, nil)
			continue
		}
		switch s.issueProtocol(st) {
		case issueDiscard:
			s.consumeBucketHead(r, st)
		case issueConsume:
			s.consumeBucketHead(r, st)
			return st
		default:
			return st
		}
	}
	return nil
}

// --- Deadline wheel sizing ---

// sizeWheels arranges exactly n deadline wheels, clearing every wheel
// ever created first (a stale ring must not point into the previous run's
// assignment arena) and retaining ring backing arrays across Reset.
// Deadlines are set by the caller after sizing.
func (s *Server) sizeWheels(n int) {
	full := s.wheels[:cap(s.wheels)]
	for i := range full {
		clear(full[i].dlq)
		full[i].dlq = full[i].dlq[:0]
		full[i].dlHead = 0
		full[i].armed = false
		full[i].deadline = 0
	}
	if cap(full) >= n {
		s.wheels = full[:n]
	} else {
		s.wheels = full
		for len(s.wheels) < n {
			s.wheels = append(s.wheels, wheel{})
		}
	}
}

// classOf maps a workunit to its deadline class: the first class whose
// reference-seconds bound covers it, the last class catching the rest.
func (s *Server) classOf(st *WUState) uint8 {
	for i, cut := range s.classCut {
		if st.RefSeconds <= cut {
			return uint8(i)
		}
	}
	return uint8(len(s.classCut))
}
