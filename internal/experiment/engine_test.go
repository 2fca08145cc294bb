package experiment

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/project"
)

// TestQueueHandsOutChunksFirst pins the engine's queue order: an adopt
// chunk published behind jobs that have not started is handed out before
// all of them, chunks and the other jobs each keep their push order, and
// the queue reports itself drained only once no popped job can publish
// another chunk. A job pushed while a worker is parked is handed to it.
func TestQueueHandsOutChunksFirst(t *testing.T) {
	prefix := testBase(t)
	var q queue
	slot := make(chan *job, 1)
	var queued []*job
	for i := 0; i < 4; i++ {
		queued = append(queued, &job{tree: &prefix}, standalone(i))
	}
	for _, j := range queued {
		q.push(j)
	}
	if got := q.pop(slot); got != queued[0] {
		t.Fatal("first pop is not the first tree")
	}
	chunkA := &job{ps: &project.PortableSnapshot{}}
	chunkB := &job{ps: &project.PortableSnapshot{}}
	q.push(chunkA)
	q.push(chunkB)
	want := append([]*job{chunkA, chunkB}, queued[1:]...)
	for k, w := range want {
		if got := q.pop(slot); got != w {
			t.Fatalf("pop %d: got job %p, want %p", k+1, got, w)
		}
	}
	for range len(want) + 1 {
		q.done()
	}
	if j := q.pop(slot); j != nil {
		t.Fatal("drained queue handed out a job")
	}

	// A job pushed while a worker is parked goes straight to it — it is
	// never queued where a worker popping later could take it first — and
	// the parked worker is released once the last running job is done.
	q = queue{}
	q.push(standalone(0))
	q.pop(slot) // now running
	parked, got := make(chan *job, 1), make(chan *job)
	waitParked := func() {
		for {
			q.mu.Lock()
			n := len(q.parked)
			q.mu.Unlock()
			if n == 1 {
				return
			}
			runtime.Gosched()
		}
	}
	go func() { got <- q.pop(parked) }()
	waitParked()
	chunk := &job{ps: &project.PortableSnapshot{}}
	q.push(chunk)
	q.mu.Lock()
	n := len(q.jobs)
	q.mu.Unlock()
	if n != 0 {
		t.Fatal("a job pushed while a worker was parked was queued instead of handed over")
	}
	if j := <-got; j != chunk {
		t.Fatal("parked worker did not receive the published chunk")
	}
	go func() { got <- q.pop(parked) }()
	q.done() // the chunk
	waitParked()
	q.done() // the running job: the parked worker sees the queue drained
	if j := <-got; j != nil {
		t.Fatal("parked worker was handed a job from a drained queue")
	}
}

// TestPoolHoldsOneWorkerPerCell: the pool starts at most one worker per
// cell. A worker without a job would park until the last job ends, holding
// its probe, so an uncapped 2-cell sweep asking for 4096 workers would
// hold 4094 idle goroutines; it must run about as many as a 2-worker one.
func TestPoolHoldsOneWorkerPerCell(t *testing.T) {
	goroutines := func(workers int) int {
		peak := 0
		_, err := Run(context.Background(), Options{
			Base: testBase(t), Scenarios: testScenarios()[:1], Reps: 2, Workers: workers,
			Progress: func(Progress) { peak = max(peak, runtime.NumGoroutine()) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return peak
	}
	want := goroutines(2)
	if got := goroutines(4096); got > want+4 {
		t.Fatalf("a 2-cell sweep asking for 4096 workers ran %d goroutines, a 2-worker one %d", got, want)
	}
}
