// Package wcg implements the volunteer-grid middleware: the server side of
// a BOINC / Grid MP style desktop grid as described in §3.1 of the paper.
//
// The server hosts a database of workunits. Volunteer agents contact it to
// fetch work, compute, and send results back. The middleware implements the
// reliability machinery the paper describes:
//
//   - redundant computing (§5.1): more than one copy of a workunit may be
//     sent out, either for quorum validation (results compared against each
//     other) or because a copy timed out or came back invalid. Late results
//     from long-offline volunteers are still accepted and counted, which is
//     why only ~73 % of received results are useful and the overall
//     redundancy factor is 1.37;
//   - validation (§5.2): with quorum 1, results are checked by value
//     (file/line/range checks); with quorum ≥ 2, matching copies validate
//     each other;
//   - timeouts and retransmission: a copy not returned by its deadline is
//     reissued.
//
// The server is driven by a discrete-event engine; it has no goroutines of
// its own and is deterministic given the engine's event order. It is always
// up: server outages are a scenario the fault plane (internal/faults)
// injects in front of it, refusing work requests and holding back results
// inside its windows.
//
// # Policy layer
//
// The middleware mechanisms are pluggable (see policy.go): a Scheduler
// decides dispatch order (FIFO by default; LIFO, seeded-random and
// batch-priority alternatives), a Validator decides the validation regime
// (the quorum-switch default, or BOINC-style adaptive replication), and a
// DeadlinePolicy decides the reissue deadline (one server-wide class by
// default, or a small set of per-duration classes). Policies are resolved
// to concrete method values when the server is constructed or Reset, so
// the per-transaction hot path pays no interface dispatch; with the
// default (nil) policies the server is bit-for-bit the production
// deployment.
//
// Two mechanisms keep the server O(1) per transaction at campaign scale
// (millions of workunits, tens of thousands of agents):
//
//   - Queue depth (PendingCount) and work availability (HasWork) are
//     incrementally maintained counters, not scans. The counters depend on
//     the quorum in force, so the one mid-project quorum switch triggers a
//     single O(queue) recount — amortized free.
//   - Deadlines use wheels, not per-assignment timers: each deadline
//     class's deadline is a constant, so its copies time out in issue
//     order, and one ring-buffer FIFO per class, drained by a single
//     re-armed engine event that the server handles, replaces millions of
//     event-heap inserts and cancellations. Each timeout still fires at
//     exactly IssuedAt+class deadline; copies returned in time simply fall
//     out of the ring unprocessed.
//
// # Reset contract
//
// Server.Reset rearms a server for another run on the same (freshly
// reset) engine, retaining what a campaign is expensive to rebuild: the
// work queue's backing arrays (shared queue and batch buckets), the
// deadline rings, the per-host trust table, and the WUState and
// Assignment arenas. Everything observable is zeroed — queue contents,
// counters, trust streaks, Stats, the OnComplete/OnWeekCPU callbacks —
// and the configured policies are re-bound, so a reset server is
// indistinguishable from NewServer to the model driving it. Every *WUState and *Assignment obtained before the
// Reset is invalidated (the arenas re-carve their slots); callers must
// drop them all first.
package wcg

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/workunit"
)

// Outcome describes how a computation attempt ended, from the server's
// point of view.
type Outcome int

const (
	// OutcomeValid is a correct result returned before (or even after)
	// the deadline.
	OutcomeValid Outcome = iota
	// OutcomeInvalid is a returned result that fails validation.
	OutcomeInvalid
)

// WUState tracks one distinct workunit through its life cycle. It keeps
// only what the simulation reads: of the workunit, its RefSeconds. The
// server keeps no couple, starting positions or ID; a campaign can rebuild
// them from its tenant's slicing plan (one receptor per batch, each
// ligand's starting positions cut by workunit.SliceCouple). The record is
// 32 bytes and free of pointers, so a 512-record chunk is exactly 16 KiB;
// the full-scale replay holds 3,872,769 of them for the whole run.
type WUState struct {
	// RefSeconds is the workunit's predicted duration on the reference
	// processor (workunit.Workunit.RefSeconds).
	RefSeconds float64
	// Batch the workunit belongs to (campaign bookkeeping).
	Batch int32

	// Copies currently in the hands of volunteers.
	outstanding int32
	// Valid results received so far (for quorum validation).
	validReturns int32

	// idx is the workunit's allocation index, stamped at allocWU: the
	// portable name a cross-context snapshot translates this pointer to
	// (in retained mode it equals the arena slot; see slab.Arena.At).
	idx int32

	// Completed reports whether the workunit has been validated and
	// assimilated.
	Completed bool

	// Counter bookkeeping (see syncCounts).
	queued     bool // sitting in the server's FIFO
	queuedLive bool // counted in nQueuedLive
	needy      bool // counted in nNeedy
}

// Config tunes the middleware policies.
type Config struct {
	// InitialQuorum is the number of matching results required while the
	// project validates by comparison (the early, cautious period §5.1).
	InitialQuorum int
	// SteadyQuorum is the quorum after the project switches to value-based
	// validation (range checks on the result files).
	SteadyQuorum int
	// QuorumSwitchTime is the simulation time at which validation switches
	// from InitialQuorum to SteadyQuorum. Zero means immediately.
	QuorumSwitchTime sim.Time
	// Deadline is how long a copy may stay out before it is considered
	// timed out and a replacement is issued. Constant per deadline class,
	// which is what makes the deadline wheels exact: a class's copies time
	// out in the order they were issued. This field is the single default
	// class; a DeadlinePolicy below replaces it with its own classes.
	Deadline float64

	// Scheduler selects the dispatch-order policy; nil means FIFOScheduler,
	// the production order.
	Scheduler Scheduler
	// Validator selects the validation regime; nil means QuorumValidator,
	// the comparison→value-check switch driven by the quorum fields above.
	Validator Validator
	// DeadlinePolicy selects the reissue-deadline regime; nil means
	// UniformDeadline: one class at Deadline.
	DeadlinePolicy DeadlinePolicy
}

// DefaultConfig mirrors the production deployment: quorum-2 comparison
// validation for the first weeks, then value-checked single results, with
// an 8-day return deadline.
func DefaultConfig() Config {
	return Config{
		InitialQuorum:    2,
		SteadyQuorum:     1,
		QuorumSwitchTime: 14 * sim.Week,
		Deadline:         8 * sim.Day,
	}
}

// Stats aggregates the server-side accounting the paper reports in
// Figure 6(b) and §5.1.
type Stats struct {
	Sent          int64 // copies handed to volunteers
	Received      int64 // results returned (valid or not)
	Valid         int64 // results passing validation
	Useful        int64 // valid results that completed a workunit need
	Wasted        int64 // valid but redundant results (already validated)
	Invalid       int64 // results failing validation
	TimedOut      int64 // copies reissued after missing the deadline
	Completed     int64 // distinct workunits validated
	CPUSeconds    float64
	WastedSeconds float64

	// LateReturns counts results that arrived after their copy had already
	// timed out (the §5.1 long-offline stragglers). Diagnostic only — it
	// feeds the InFlight derivation — and excluded from the JSON rendering
	// so report bytes (and the golden hashes pinned on them) are unchanged.
	LateReturns int64 `json:"-"`

	// Outage accounting. The server itself never sets these: the fault
	// plane counts its refusals and spooled results, and the project layer
	// copies them in when it builds a fault run's report. Zero, and so
	// omitted from the JSON rendering, on a fault-free run.
	Refused  int64 `json:",omitempty"` // work requests refused while down
	Deferred int64 `json:",omitempty"` // results spooled for post-outage validation
}

// InFlight returns the number of copies currently in volunteers' hands:
// sent, minus timed-out, minus on-time returns. A late return was already
// removed from flight by its timeout, so it must not be subtracted twice.
func (s Stats) InFlight() int64 {
	return s.Sent - s.TimedOut - (s.Received - s.LateReturns)
}

// RedundancyFactor returns copies-sent per distinct workunit completed —
// the paper's 1.37.
func (s Stats) RedundancyFactor() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.Sent) / float64(s.Completed)
}

// UsefulFraction returns the fraction of received results that correspond
// to distinct completed workunits — the paper's 73 % (3,936,010 effective
// results out of 5,418,010 received). Quorum duplicates, late returns and
// invalid results make up the remainder.
func (s Stats) UsefulFraction() float64 {
	if s.Received == 0 {
		return 0
	}
	return float64(s.Completed) / float64(s.Received)
}

// Assignment is a copy of a workunit handed to a volunteer.
type Assignment struct {
	WU       *WUState
	IssuedAt sim.Time
	idx      int32 // allocation index (see WUState.idx)
	returned bool
	class    uint8 // deadline class (wheel index); 0 under UniformDeadline
	proj     uint8 // issuing server's project index (multi-project grids)
}

// AssignmentIndex returns a's portable allocation index (see WUState.idx);
// NilIndex for nil. Event tags carry it so an adopting run context can
// resolve the assignment against its own arena.
func AssignmentIndex(a *Assignment) int32 {
	if a == nil {
		return NilIndex
	}
	return a.idx
}

// Project returns the project index of the server that issued this
// assignment (see Server.SetProject). 0 on a standalone server — the
// hook a multi-project work-fetch multiplexer routes completions by.
func (a *Assignment) Project() int { return int(a.proj) }

// wheel is one deadline class's exact timeout ring: assignments in issue
// order, drained by one re-armed engine event. Returned/completed copies
// fall out of the ring lazily.
type wheel struct {
	deadline float64
	dlq      []*Assignment
	dlHead   int
	armed    bool
}

// Server is the volunteer-grid work distributor.
type Server struct {
	cfg    Config
	engine *sim.Engine
	proj   uint8 // project identity stamped on every issued assignment

	// Work pool shared by the FIFO/LIFO/random schedulers; the
	// batch-priority scheduler uses the buckets below instead.
	queue []*WUState // workunits needing more copies out
	qHead int        // consumed prefix (FIFO scheduler only)

	// Scheduler policy, resolved to concrete method values at bind time
	// (NewServer/Reset): the hot path pays no interface dispatch.
	schedNext func() *WUState      // next workunit to issue a copy from
	schedPush func(*WUState)       // enqueue a workunit needing copies
	schedEach func(func(*WUState)) // visit queued workunits (quorum recount)
	schedRand rng.Source           // seeded-random scheduler state

	// Batch-priority scheduler state: one FIFO bucket per batch, ordered
	// by the batch's first-enqueue rank.
	buckets    [][]*WUState
	bucketHead []int
	minBucket  int
	batchRank  []int // batch id → 1+rank of first enqueue (0 = unseen)
	nextRank   int

	// Incrementally maintained counters (see syncCounts):
	nQueuedLive int // queued workunits not yet completed: PendingCount
	nNeedy      int // queued workunits needing more copies out: HasWork
	qCache      int // quorum the counters were computed against

	// Deadline wheels, one exact ring per class; classFn assigns a
	// workunit's class (nil = everything in class 0).
	wheels   []wheel
	classFn  func(*WUState) uint8
	classCut []float64 // per-class RefSeconds upper bounds (classOf)

	// Adaptive-replication validator state: per-host valid-result streaks,
	// dense by host identity.
	adaptiveOn  bool
	adThreshold int
	adStreak    []int

	// Bump allocators: workunit states and assignments are carved from
	// chunks instead of allocated one by one (millions per campaign). Two
	// modes, switched by retain:
	//
	//   - one-shot (default): progressive slabs whose carved-past chunks
	//     are collected as soon as their objects are unreachable, so a
	//     single run's memory is reclaimed as the campaign progresses;
	//   - retained (Retain/Reset): arenas that survive Reset, so a pooled
	//     server re-carves the same chunks run after run.
	retain  bool
	wuChunk []WUState
	asChunk []Assignment
	wuArena slab.Arena[WUState]
	asArena slab.Arena[Assignment]
	wuNext  int32 // next allocation index to stamp (WUState.idx)
	asNext  int32

	Stats Stats

	// OnComplete, if non-nil, is invoked when a distinct workunit is
	// validated (used by the campaign orchestrator for progression and
	// batch release).
	OnComplete func(*WUState)

	// OnWeekCPU, if non-nil, receives (weekIndex, cpuSeconds) for every
	// returned result, for the Figure 6(a) weekly VFTP series.
	OnWeekCPU func(week int, cpuSeconds float64)

	// OnQuorumSwitch, if non-nil, is invoked when the quorum in force
	// changes (at most once per run under the default validator): the
	// run-trace hook for the paper's week-14 comparison→value-check switch.
	// Like the callbacks above it must be read-only with respect to the
	// server.
	OnQuorumSwitch func(at sim.Time, from, to int)
}

// NewServer creates a server bound to the simulation engine.
func NewServer(engine *sim.Engine, cfg Config) *Server {
	checkConfig(cfg)
	s := &Server{
		cfg:    cfg,
		engine: engine,
	}
	s.qCache = s.quorum()
	s.bindPolicies()
	return s
}

func checkConfig(cfg Config) {
	if cfg.InitialQuorum < 1 || cfg.SteadyQuorum < 1 {
		panic("wcg: quorum must be at least 1")
	}
	if cfg.Deadline <= 0 {
		panic("wcg: deadline must be positive")
	}
}

// SetProject stamps the server with its project identity on a shared
// multi-project grid: every assignment it issues from now on carries the
// index (Assignment.Project), which is how a work-fetch multiplexer routes
// a host's completions back to the issuing tenant. A standalone server
// keeps the zero identity. Work availability itself needs no extra hook:
// HasWork is an O(1) incrementally-maintained counter, so the multiplexer
// polls it per fetch and an idle tenant yields its slice immediately.
func (s *Server) SetProject(id int) {
	if id < 0 || id > 255 {
		panic("wcg: project index out of range [0,255]")
	}
	s.proj = uint8(id)
}

// Retain switches the server to retained (arena) allocation: object
// chunks survive Reset and are re-carved by the next run. Pooled run
// contexts call it right after NewServer, before the first workunit is
// added, so the first run's chunks already land in the reusable arena.
func (s *Server) Retain() { s.retain = true }

// allocWU carves one WUState from the allocator in force, stamping its
// allocation index.
func (s *Server) allocWU() *WUState {
	var st *WUState
	if s.retain {
		st = s.wuArena.Alloc()
	} else {
		st = slab.Carve(&s.wuChunk)
	}
	st.idx = s.wuNext
	s.wuNext++
	return st
}

// allocAssignment carves one Assignment from the allocator in force,
// stamping its allocation index.
func (s *Server) allocAssignment() *Assignment {
	var a *Assignment
	if s.retain {
		a = s.asArena.Alloc()
	} else {
		a = slab.Carve(&s.asChunk)
	}
	a.idx = s.asNext
	s.asNext++
	return a
}

// Reset rearms the server for another run under a (possibly different)
// configuration, switching it to retained allocation (see Retain). The
// engine must have been Reset first: the quorum cache is recomputed
// against the engine's current clock. Backing storage — queue array,
// deadline ring, WUState/Assignment arenas — is retained; see the
// package-level Reset contract.
func (s *Server) Reset(cfg Config) {
	checkConfig(cfg)
	s.cfg = cfg
	s.retain = true
	s.proj = 0 // a pooled grid re-attaches (and re-stamps) after Reset
	s.wuChunk, s.asChunk = nil, nil
	clear(s.queue)
	s.queue = s.queue[:0]
	s.qHead = 0
	for i := range s.buckets {
		clear(s.buckets[i])
		s.buckets[i] = s.buckets[i][:0]
		s.bucketHead[i] = 0
	}
	s.minBucket = 0
	clear(s.batchRank)
	s.nextRank = 0
	s.nQueuedLive, s.nNeedy = 0, 0
	s.qCache = s.quorum()
	clear(s.adStreak)
	s.bindPolicies() // sizes and clears the deadline wheels
	s.wuArena.Reset()
	s.asArena.Reset()
	s.wuNext, s.asNext = 0, 0
	s.Stats = Stats{}
	s.OnComplete = nil
	s.OnWeekCPU = nil
	s.OnQuorumSwitch = nil
}

// Deadline returns the server's base reissue deadline: how long a copy of
// the default class may stay out before a replacement is issued. Agents
// use it to model how late a reconnecting device's result arrives; with a
// multi-class DeadlinePolicy, DeadlineFor gives an assignment's own class
// deadline.
func (s *Server) Deadline() float64 { return s.cfg.Deadline }

// DeadlineFor returns the reissue deadline of the assignment's deadline
// class. Under UniformDeadline it equals Deadline().
func (s *Server) DeadlineFor(a *Assignment) float64 {
	return s.wheels[a.class].deadline
}

// quorum returns the quorum in force at the current simulation time.
func (s *Server) quorum() int {
	if s.engine.Now() < s.cfg.QuorumSwitchTime {
		return s.cfg.InitialQuorum
	}
	return s.cfg.SteadyQuorum
}

// refreshQuorum recomputes the counters when the quorum in force has
// changed since they were last maintained. The quorum switches at most
// once per run (§5.1), so the O(queue) recount is amortized free. Every
// public entry point calls this first, so qCache is always the quorum in
// force for the rest of the call.
func (s *Server) refreshQuorum() {
	q := s.quorum()
	if q == s.qCache {
		return
	}
	if s.OnQuorumSwitch != nil {
		s.OnQuorumSwitch(s.engine.Now(), s.qCache, q)
	}
	s.qCache = q
	s.schedEach(s.syncCounts)
}

// syncCounts reconciles st's contribution to the O(1) counters after any
// change to its queue membership, outstanding copies, valid returns, or
// completion.
func (s *Server) syncCounts(st *WUState) {
	ql := st.queued && !st.Completed
	if ql != st.queuedLive {
		if ql {
			s.nQueuedLive++
		} else {
			s.nQueuedLive--
		}
		st.queuedLive = ql
	}
	ny := ql && s.needsCopies(st)
	if ny != st.needy {
		if ny {
			s.nNeedy++
		} else {
			s.nNeedy--
		}
		st.needy = ny
	}
}

// AddWorkunit registers a distinct workunit for distribution. The server
// keeps only the workunit's RefSeconds; the returned state is the caller's
// handle to it. A batch outside [0, math.MaxInt32] or a RefSeconds that is
// not finite and positive panics: the record could not hold the one, and
// the other would surface only later, as a NaN event time in the host
// plane.
func (s *Server) AddWorkunit(wu workunit.Workunit, batch int) *WUState {
	if batch < 0 || batch > math.MaxInt32 {
		panic(fmt.Sprintf("wcg: workunit batch %d outside [0, %d]", batch, math.MaxInt32))
	}
	if !(wu.RefSeconds > 0) || math.IsInf(wu.RefSeconds, 1) {
		panic(fmt.Sprintf("wcg: workunit RefSeconds %v is not finite and positive", wu.RefSeconds))
	}
	s.refreshQuorum()
	st := s.allocWU()
	st.RefSeconds = wu.RefSeconds
	st.Batch = int32(batch)
	s.enqueue(st)
	return st
}

func (s *Server) enqueue(st *WUState) {
	if st.queued || st.Completed {
		return
	}
	st.queued = true
	s.schedPush(st)
	s.syncCounts(st)
}

// dequeueHead removes the queue head, keeping the counters in sync.
func (s *Server) dequeueHead(st *WUState) {
	s.queue[s.qHead] = nil
	s.qHead++
	if st != nil {
		st.queued = false
		s.syncCounts(st)
	}
	s.compactQueue()
}

// compactPrefix drops a slice's consumed prefix once it dominates the
// backing array, returning the compacted slice and head. Shared by the
// workunit FIFO and the deadline ring so the policy lives in one place.
func compactPrefix[T any](s []T, head int) ([]T, int) {
	if head <= 1024 || head*2 <= len(s) {
		return s, head
	}
	n := copy(s, s[head:])
	var zero T
	for i := n; i < len(s); i++ {
		s[i] = zero
	}
	return s[:n], 0
}

// compactQueue drops the consumed prefix once it dominates the slice.
func (s *Server) compactQueue() {
	s.queue, s.qHead = compactPrefix(s.queue, s.qHead)
}

// HasWork reports whether a work request would succeed. O(1).
func (s *Server) HasWork() bool {
	s.refreshQuorum()
	return s.nNeedy > 0
}

// needsCopies reports whether more copies of st should be out, given the
// quorum currently in force.
func (s *Server) needsCopies(st *WUState) bool {
	return int(st.validReturns+st.outstanding) < s.qCache
}

// completeWU marks st validated and assimilated: the single place a
// workunit completes, whether by quorum or by a trusted host's result.
func (s *Server) completeWU(st *WUState) {
	st.Completed = true
	s.Stats.Completed++
	s.syncCounts(st)
	if s.OnComplete != nil {
		s.OnComplete(st)
	}
}

// maybeComplete validates st against the quorum currently in force. This
// matters when the quorum is lowered mid-project (§5.1): a workunit that
// already holds enough valid returns under the new quorum completes without
// waiting for further copies.
func (s *Server) maybeComplete(st *WUState) {
	if st.Completed || int(st.validReturns) < s.qCache {
		return
	}
	s.completeWU(st)
}

// RequestWork hands out one copy to an anonymous host. Equivalent to
// RequestWorkFor(-1).
func (s *Server) RequestWork() *Assignment { return s.RequestWorkFor(-1) }

// RequestWorkFor hands out one copy, or nil if no work is available. The
// scheduler in force picks the workunit, whoever asks: host is accepted
// for the volunteer.WorkSource contract and ignored. The deadline timer
// for the copy starts immediately, on the wheel of the workunit's deadline
// class.
func (s *Server) RequestWorkFor(host int) *Assignment {
	s.refreshQuorum()
	st := s.schedNext()
	if st == nil {
		return nil
	}
	s.Stats.Sent++
	a := s.allocAssignment()
	a.WU = st
	a.IssuedAt = s.engine.Now()
	a.proj = s.proj
	if s.classFn != nil {
		a.class = s.classFn(st)
	}
	w := &s.wheels[a.class]
	w.dlq = append(w.dlq, a)
	if !w.armed {
		// Arm at the ring head's due time, not the new copy's: when a
		// reentrant callback lands here mid-drain, earlier live
		// entries may still be in the ring and must not fire late.
		w.armed = true
		s.engine.ScheduleCall(w.dlq[w.dlHead].IssuedAt+w.deadline,
			sim.Call{Kind: sim.CallWheelDrain, K0: a.class}, s, nil)
	}
	return a
}

// Handle implements sim.Handler: a server's events are its deadline
// wheels' CallWheelDrain ticks, each naming its class in K0.
func (s *Server) Handle(c sim.Call, _ any) { s.drainWheel(int(c.K0)) }

// drainWheel is deadline class k's single recurring event: it times out
// every copy of the class whose deadline has passed (in issue order, at
// exactly IssuedAt+deadline since the wheel is always armed for the
// head's due time), discards copies that returned in the meantime, and
// re-arms itself for the next live head.
func (s *Server) drainWheel(k int) {
	w := &s.wheels[k]
	w.armed = false
	s.refreshQuorum()
	now := s.engine.Now()
	for w.dlHead < len(w.dlq) {
		a := w.dlq[w.dlHead]
		dead := a.returned || a.WU.Completed
		if !dead && a.IssuedAt+w.deadline > now {
			break
		}
		w.dlq[w.dlHead] = nil
		w.dlHead++
		if dead {
			continue
		}
		// Timed out: the server issues a replacement. The late copy may
		// still come back and be counted (§5.1).
		s.Stats.TimedOut++
		a.returned = true // the assignment no longer counts as live
		a.WU.outstanding--
		s.syncCounts(a.WU)
		s.maybeComplete(a.WU)
		if !a.WU.Completed {
			s.enqueue(a.WU)
		}
	}
	w.dlq, w.dlHead = compactPrefix(w.dlq, w.dlHead)
	// An OnComplete callback above may have called RequestWork and armed
	// the wheel already; re-arming unconditionally would fork a second,
	// permanent drain chain.
	if !w.armed && w.dlHead < len(w.dlq) {
		w.armed = true
		s.engine.ScheduleCall(w.dlq[w.dlHead].IssuedAt+w.deadline,
			sim.Call{Kind: sim.CallWheelDrain, K0: uint8(k)}, s, nil)
	}
}

// Complete reports a result for an assignment with no host identity: the
// validator in force can never grant it per-host trust. Equivalent to
// CompleteFrom(a, outcome, cpuSeconds, -1).
func (s *Server) Complete(a *Assignment, outcome Outcome, cpuSeconds float64) {
	s.CompleteFrom(a, outcome, cpuSeconds, -1)
}

// CompleteFrom reports a result for an assignment computed by the given
// host (any non-negative identity; negative means anonymous). cpuSeconds
// is the run time the agent reports (wall-clock based for the UD agent,
// §6). Late results (after timeout) are accepted: their CPU time was
// spent and is accounted, and if the workunit still needed a result they
// validate it. Under AdaptiveValidator the host identity carries the
// valid-result streak that can earn the host per-host quorum 1.
func (s *Server) CompleteFrom(a *Assignment, outcome Outcome, cpuSeconds float64, host int) {
	if a == nil {
		panic("wcg: Complete(nil)")
	}
	s.refreshQuorum()
	late := a.returned
	if late {
		s.Stats.LateReturns++
	} else {
		a.returned = true
		a.WU.outstanding--
		s.syncCounts(a.WU)
	}
	s.Stats.Received++
	s.Stats.CPUSeconds += cpuSeconds
	if s.OnWeekCPU != nil {
		s.OnWeekCPU(sim.Calendar{}.WeekIndex(s.engine.Now()), cpuSeconds)
	}

	if outcome == OutcomeInvalid {
		s.Stats.Invalid++
		s.Stats.WastedSeconds += cpuSeconds
		if s.adaptiveOn && host >= 0 && host < len(s.adStreak) {
			s.adStreak[host] = 0 // an invalid result forfeits the streak
		}
		if !a.WU.Completed {
			s.enqueue(a.WU)
		}
		return
	}

	s.Stats.Valid++
	trusted := false
	if s.adaptiveOn && host >= 0 {
		trusted = s.recordValid(host)
	}
	if a.WU.Completed {
		// Redundant: workunit already validated (late or extra copy).
		s.Stats.Wasted++
		s.Stats.WastedSeconds += cpuSeconds
		return
	}
	// Whether it completes the workunit or advances the quorum, the
	// result is useful.
	a.WU.validReturns++
	s.Stats.Useful++
	s.syncCounts(a.WU)
	s.maybeComplete(a.WU)
	if trusted && !a.WU.Completed {
		// Adaptive replication: a trusted host's result validates alone,
		// regardless of the quorum still pending.
		s.completeWU(a.WU)
	}
	if !a.WU.Completed && s.needsCopies(a.WU) {
		s.enqueue(a.WU)
	}
}

// recordValid advances the host's valid-result streak and reports whether
// the host was already trusted when this result arrived (trust is earned
// by *prior* results: the result that crosses the threshold does not
// validate itself).
func (s *Server) recordValid(host int) bool {
	for len(s.adStreak) <= host {
		s.adStreak = append(s.adStreak, 0)
	}
	trusted := s.adStreak[host] >= s.adThreshold
	s.adStreak[host]++
	return trusted
}

// PendingCount returns the number of workunits still waiting for copies or
// validation (queue depth; completed entries are not counted). O(1).
func (s *Server) PendingCount() int {
	return s.nQueuedLive
}

// WheelClasses returns the number of deadline classes (wheels) in force.
func (s *Server) WheelClasses() int { return len(s.wheels) }

// WheelOccupancy returns the number of entries sitting in deadline class
// k's timeout ring. Diagnostic, O(1): the count includes copies that
// already returned but have not yet been lazily discarded by the drain, so
// it upper-bounds the class's truly live copies.
func (s *Server) WheelOccupancy(k int) int {
	w := &s.wheels[k]
	return len(w.dlq) - w.dlHead
}

// String summarizes the server state for logs.
func (s *Server) String() string {
	return fmt.Sprintf("wcg.Server{sent=%d received=%d valid=%d completed=%d redundancy=%.3f}",
		s.Stats.Sent, s.Stats.Received, s.Stats.Valid, s.Stats.Completed, s.Stats.RedundancyFactor())
}
