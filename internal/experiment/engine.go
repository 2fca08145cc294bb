package experiment

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/project"
	"repro/internal/sim"
)

// cell is one (scenario, replication) point of a sweep: its checkpoint
// key, the selection index of its scenario and its derived seed.
type cell struct {
	Key
	scen int
	seed uint64
}

// forkGroup is a set of cells, by index, that share a trajectory up to
// sim-time at.
type forkGroup struct {
	at    sim.Time
	cells []int
}

// job is the pool's unit of work: an optional prefix plus the cells run or
// forked from it. Without a prefix the job's one cell runs standalone — a
// campaign or a co-run. A tree job simulates one replication's shared
// prefix once, under the tree config, and forks each group's cells at its
// divergence time. An adopt job adopts a snapshot its tree published and
// forks its slice of that group.
type job struct {
	tree   *project.Config
	ps     *project.PortableSnapshot
	groups []forkGroup
	stat   *treeStat // the fanned-out tree a tree or adopt job belongs to
}

func standalone(i int) *job { return &job{groups: []forkGroup{{cells: []int{i}}}} }

// treeStat times one fanned-out prefix tree for Sweep.ParallelSpeedup:
// cost sums the wall time of the tree job and of its adopt jobs; the span
// runs from the tree's start to its last finisher.
type treeStat struct {
	start, end time.Time
	cost       float64
}

// queue hands jobs to the pool. A published adopt chunk goes out before
// any job that has not started: it holds a materialized snapshot, so
// adopting it while its tree still forks bounds the snapshots alive at
// once and ends the tree's fan-out with the tree. A job pushed while
// workers are parked goes straight to one of them, so which runner adopts
// a chunk (and whether its first adoption builds arenas) does not depend on
// wake-up order. The zero queue is empty.
type queue struct {
	mu     sync.Mutex
	jobs   []*job      // adopt jobs (oldest first), then the rest in plan order
	chunks int         // adopt jobs at the head of jobs
	active int         // popped jobs not yet done: they may still publish chunks
	parked []chan *job // slots of workers waiting in pop; jobs is empty while any wait
}

func (q *queue) push(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n := len(q.parked); n > 0 {
		q.active++
		q.parked[n-1] <- j // a parked worker's slot is empty, so this never blocks
		q.parked = q.parked[:n-1]
	} else if j.ps != nil {
		q.jobs = slices.Insert(q.jobs, q.chunks, j)
		q.chunks++
	} else {
		q.jobs = append(q.jobs, j)
	}
}

// pop returns the next job. While the queue is empty but a running job
// may still publish a chunk, the worker parks on slot, its own channel
// with a buffer of one. It returns nil once no work is left.
func (q *queue) pop(slot chan *job) *job {
	q.mu.Lock()
	if len(q.jobs) == 0 && q.active > 0 {
		q.parked = append(q.parked, slot)
		q.mu.Unlock()
		return <-slot
	}
	defer q.mu.Unlock()
	if len(q.jobs) == 0 {
		return nil
	}
	j := q.jobs[0]
	q.jobs[0] = nil // a finished adopt job must not pin its snapshot
	q.jobs, q.chunks = q.jobs[1:], max(q.chunks-1, 0)
	q.active++
	return j
}

// done marks a popped job finished. The last running job's end releases
// the parked workers: nothing can publish another chunk.
func (q *queue) done() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.active--; q.active == 0 {
		for _, slot := range q.parked {
			slot <- nil // empty while parked: never blocks
		}
		q.parked = q.parked[:0]
	}
}

// engine is the sweep engine behind Run and RunGrid, and owns the only
// worker pool: each worker keeps its pooled run contexts and takes jobs
// off one queue. Every job kind shares the checkpoint lookup and record,
// the progress and ETA path, and the recover-rebuild-rerun path.
type engine struct {
	cells        []cell
	scale, hours float64 // recorded on every result; with the seed, the checkpoint match rule
	fanout       int     // ForkWorkers: a fork group splits into up to this many chunks (≤ 1: none)

	// grid marks co-run cells (RunGrid), which carry RunResult.Grid: a
	// checkpointed cell of the other kind never stands in for one. runCell
	// runs cell c standalone under probe on w's run context and fills in
	// res's metrics; forkConfig is the campaign configuration a fork runs.
	grid       bool
	runCell    func(w *worker, c cell, probe *obs.Probe, res *RunResult)
	forkConfig func(c cell) project.Config

	workers        int // 0 = GOMAXPROCS
	ckpt           *Checkpoint
	progress       func(Progress)
	metrics, trace *obs.Sink
	sampleEvery    float64

	q queue

	mu      sync.Mutex
	start   time.Time
	results []RunResult // by cell; zero until the cell finishes
	done    int
	resumed int
	stats   Sweep // fork jobs' prefix-sharing and fan-out statistics
	trees   []*treeStat
}

// run finishes every cell the checkpoint holds, turns the pending rest
// into jobs — plan's prefix jobs, which claim their cells by clearing them
// in pending (plan may be nil), and a standalone job for every other cell —
// and runs them on the pool. Each cell's simulation is deterministic in its
// seed, so the results do not depend on the worker count. Cancelling ctx
// stops jobs from starting (running ones finish).
//
// It returns the finished and the failed cells' results in cell order
// (cells a cancelled sweep never ran are in neither) and ctx's error if
// cancellation dropped a job, else an error naming the failed cells.
func (e *engine) run(ctx context.Context, plan func(pending []bool) []*job) (finished, failed []RunResult, err error) {
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e.fanout = min(e.fanout, workers)
	e.start = time.Now()
	e.results = make([]RunResult, len(e.cells))
	pending := make([]bool, len(e.cells))
	for i, c := range e.cells {
		// A checkpointed cell resumes only under this sweep's parameters:
		// the same seed, scale and workunit hours, and the same cell kind.
		prev, ok := RunResult{}, false
		if e.ckpt != nil {
			prev, ok = e.ckpt.Lookup(c.Key)
		}
		if ok && prev.Seed == c.seed && prev.Scale == e.scale && prev.HHours == e.hours &&
			(prev.Grid != nil) == e.grid {
			e.resumed++
			e.finish(i, prev, true, 0)
		} else {
			pending[i] = true
		}
	}
	if plan != nil {
		for _, j := range plan(pending) {
			e.q.push(j)
		}
	}
	for i, p := range pending {
		if p {
			e.q.push(standalone(i))
		}
	}

	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{e: e, probe: newCellProbe(e.metrics, e.trace, e.sampleEvery), slot: make(chan *job, 1)}
			for j := e.q.pop(w.slot); j != nil; j = e.q.pop(w.slot) {
				if ctx.Err() == nil { // a cancelled sweep drops the jobs left
					w.run(j)
				}
				e.q.done()
			}
		}()
	}
	wg.Wait()

	finished = make([]RunResult, 0, e.done)
	for _, r := range e.results {
		switch {
		case r.Scenario == "": // never run
		case r.Failed:
			failed = append(failed, r)
		default:
			finished = append(finished, r)
		}
	}
	switch {
	case len(finished)+len(failed) < len(e.cells):
		err = ctx.Err() // only cancellation leaves a cell unrun
	case len(failed) > 0:
		f := failed[0]
		err = fmt.Errorf("experiment: %d of %d cells failed after a retry (first: %s rep %d: %s)",
			len(failed), len(e.cells), f.Scenario, f.Rep, f.Error)
	}
	return finished, failed, err
}

// result returns cell i's result record, metrics not yet filled in.
func (e *engine) result(i int) RunResult {
	c := e.cells[i]
	return RunResult{Scenario: c.Scenario, Rep: c.Rep, Seed: c.seed, Scale: e.scale, HHours: e.hours}
}

// finish stores cell i's result, checkpoints it when it was simulated,
// and reports progress.
func (e *engine) finish(i int, res RunResult, resumed bool, wall float64) {
	if !resumed && e.ckpt != nil {
		e.ckpt.Record(res) // drops failed cells: a resumed sweep retries them
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.results[i] = res
	e.done++
	if e.progress != nil {
		p := Progress{Done: e.done, Total: len(e.cells), Resumed: resumed, Result: res, WallSeconds: wall}
		if elapsed := time.Since(e.start).Seconds(); elapsed > 0 {
			p.CellsPerSec = float64(e.done) / elapsed
			p.ETASeconds = float64(len(e.cells)-e.done) / p.CellsPerSec
		}
		e.progress(p)
	}
}

// worker is one pool goroutine: its pooled run contexts (zero until a
// sweep's first cell of their kind builds the arenas, which every later cell
// reuses), its observability probe, and the slot the queue hands it a job
// through while it is parked.
type worker struct {
	e      *engine
	runner project.Runner     // Run's cells
	grid   project.GridRunner // RunGrid's cells
	probe  *cellProbe
	slot   chan *job
}

// run executes j. If j panics, each of its unfinished cells reruns on the
// rebuilt run context as a standalone job, so a forked cell gets the same
// retry as any other, and a standalone cell that panics a second time is
// recorded as failed.
func (w *worker) run(j *job) {
	e, start := w.e, time.Now()
	_, ok := w.attempt(j)
	if st := j.stat; st != nil {
		now := time.Now()
		e.mu.Lock()
		st.cost += now.Sub(start).Seconds()
		if now.After(st.end) {
			st.end = now
		}
		e.mu.Unlock()
	}
	if ok {
		return
	}
	for _, g := range j.groups {
		for _, i := range g.cells {
			switch {
			case e.results[i].Scenario != "": // finished: only this job writes its cells' results
			case j.tree != nil || j.ps != nil:
				w.run(standalone(i))
			default:
				if msg, ok := w.attempt(j); !ok {
					res := e.result(i)
					res.Failed, res.Error = true, msg
					e.finish(i, res, false, 0)
				}
			}
		}
	}
}

// attempt executes j on the worker's run context, converting a panic into
// its message. A panic can leave the pooled context mid-run and
// inconsistent, so this — the one recovery site for every job kind —
// rebuilds it.
func (w *worker) attempt(j *job) (panicMsg string, ok bool) {
	defer func() {
		if p := recover(); p != nil {
			w.runner, w.grid = project.Runner{}, project.GridRunner{}
			panicMsg = fmt.Sprint(p)
		}
	}()
	switch {
	case j.tree != nil:
		w.walk(j)
	case j.ps != nil:
		start := time.Now()
		w.runner.AdoptSnapshot(j.ps)
		adopt := time.Since(start)
		saved, n := w.forks(j.groups[0]), len(j.groups[0].cells)
		w.e.mu.Lock()
		s := &w.e.stats
		s.PrefixHits += n
		s.SavedSimWeeks += saved
		s.AdoptedRunners++
		s.SnapshotAdoptNS += adopt.Nanoseconds()
		s.ForksParallel += n
		w.e.mu.Unlock()
	default:
		w.simulate(j.groups[0].cells[0])
	}
	return "", true
}

// simulate runs cell i standalone and probed.
func (w *worker) simulate(i int) {
	e, c := w.e, w.e.cells[i]
	res := e.result(i)
	probe := w.probe.arm(c.Scenario, c.Rep)
	start := time.Now()
	e.runCell(w, c, probe, &res)
	wall := time.Since(start).Seconds()
	w.probe.flush(c.Scenario, c.Rep)
	e.finish(i, res, false, wall)
}

// forks forks each cell of g off the runner's held snapshot and returns
// the sim-weeks they did not re-simulate. Forked cells run unprobed.
func (w *worker) forks(g forkGroup) (saved float64) {
	e := w.e
	for _, i := range g.cells {
		res := e.result(i)
		start := time.Now()
		res.Metrics = ExtractMetrics(w.runner.Fork(e.forkConfig(e.cells[i])))
		e.finish(i, res, false, time.Since(start).Seconds())
		saved += float64(g.at) / float64(sim.Week)
	}
	return saved
}

// walk simulates a replication's shared prefix once and, at each group's
// divergence time, materializes it and forks the group's cells. A group
// with more than one cell fans out: every chunk of it but the first is
// published to the pool as an adopt job, and the tree forks the first.
func (w *worker) walk(j *job) {
	e := w.e
	start := time.Now()
	w.runner.Begin(*j.tree)
	var hits int
	var saved float64
	for gi := range j.groups {
		g := &j.groups[gi]
		w.runner.RunTo(g.at)
		capStart := time.Now()
		ps, err := w.runner.Materialize()
		if err != nil {
			panic(err) // the cells fall back to standalone runs
		}
		if n := min(e.fanout, len(g.cells)); n > 1 {
			capNS, bytes := time.Since(capStart).Nanoseconds(), ps.Bytes()
			e.mu.Lock()
			e.stats.SnapshotBytes += bytes
			e.stats.SnapshotCaptureNS += capNS
			if j.stat == nil {
				j.stat = &treeStat{start: start}
				e.trees = append(e.trees, j.stat)
			}
			e.mu.Unlock()
			per := (len(g.cells) + n - 1) / n
			chunks := g.cells[per:]
			g.cells = g.cells[:per] // the rest belong to their adopt jobs
			for lo := 0; lo < len(chunks); lo += per {
				e.q.push(&job{ps: ps, stat: j.stat,
					groups: []forkGroup{{at: g.at, cells: chunks[lo:min(lo+per, len(chunks))]}}})
			}
		}
		hits += len(g.cells)
		saved += w.forks(*g)
		if gi < len(j.groups)-1 {
			w.runner.Restore()
		}
	}
	// The shared prefix itself was simulated once, to the deepest
	// divergence point.
	saved -= float64(j.groups[len(j.groups)-1].at) / float64(sim.Week)
	e.mu.Lock()
	e.stats.PrefixGroups += len(j.groups)
	e.stats.PrefixHits += hits
	e.stats.SavedSimWeeks += saved
	e.mu.Unlock()
}
