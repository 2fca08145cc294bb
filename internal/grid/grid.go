// Package grid models the dedicated grid (Grid'5000-like) the paper
// compares the volunteer platform against in §6.
//
// A dedicated grid differs from the volunteer grid in every dimension the
// paper discusses: processors are homogeneous reference CPUs (Opteron
// 2 GHz), always available, run the application at full speed with no
// throttle, never abandon work, and need no redundant computing. The only
// scheduling concern is keeping all processors busy, so the makespan of an
// embarrassingly parallel bag of tasks approaches total-work / processors.
//
// The package provides both the executable scheduler (a discrete-event
// worker pool, used to validate the accounting) and the closed-form
// equivalence the paper's Table 2 is built on.
package grid

import (
	"container/heap"
	"fmt"
)

// Cluster is a dedicated homogeneous cluster.
type Cluster struct {
	Procs int
	// PowerRatio is the per-processor speed relative to the reference CPU
	// (1.0 for Grid'5000 Opteron nodes).
	PowerRatio float64
}

// NewCluster returns a cluster of n reference processors.
func NewCluster(n int) Cluster {
	if n <= 0 {
		panic("grid: cluster needs at least one processor")
	}
	return Cluster{Procs: n, PowerRatio: 1}
}

// AnalyticMakespan returns the ideal makespan (seconds) for totalRefSeconds
// of work: the bound the paper's equivalence assumes ("it supposed that the
// dedicated grid is optimally used").
func (c Cluster) AnalyticMakespan(totalRefSeconds float64) float64 {
	return totalRefSeconds / (float64(c.Procs) * c.PowerRatio)
}

// ScheduleResult reports a simulated run.
type ScheduleResult struct {
	Makespan    float64 // wall-clock seconds to drain the bag
	Utilization float64 // processor-seconds consumed / (Makespan × Procs)
	Tasks       int
}

// Schedule runs a list-scheduling simulation of the task bag (durations in
// reference seconds) on the cluster: each processor takes the next task as
// soon as it is free (FCFS, the natural batch-scheduler behaviour). Returns
// the exact makespan for this ordering.
func (c Cluster) Schedule(durations []float64) ScheduleResult {
	if len(durations) == 0 {
		return ScheduleResult{}
	}
	// Min-heap of processor free times.
	free := make(procHeap, c.Procs)
	heap.Init(&free)
	var cpu float64
	for _, d := range durations {
		if d < 0 {
			panic(fmt.Sprintf("grid: negative task duration %v", d))
		}
		run := d / c.PowerRatio
		t := free[0]
		heap.Pop(&free)
		heap.Push(&free, t+run)
		cpu += run
	}
	makespan := 0.0
	for _, t := range free {
		if t > makespan {
			makespan = t
		}
	}
	util := 0.0
	if makespan > 0 {
		util = cpu / (makespan * float64(c.Procs))
	}
	return ScheduleResult{Makespan: makespan, Utilization: util, Tasks: len(durations)}
}

type procHeap []float64

func (h procHeap) Len() int           { return len(h) }
func (h procHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h procHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *procHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *procHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// ProcessorsFor returns how many dedicated processors complete
// totalRefSeconds of work within wallSeconds — the planning inverse of
// AnalyticMakespan, used by the §7 phase II estimates.
func ProcessorsFor(totalRefSeconds, wallSeconds float64) int {
	if wallSeconds <= 0 {
		panic("grid: wall time must be positive")
	}
	p := totalRefSeconds / wallSeconds
	n := int(p)
	if float64(n) < p {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}
