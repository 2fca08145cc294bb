package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// Telemetry is a live wall-clock snapshot of a running sweep: throughput,
// ETA, and process memory, the numbers behind cmd/sweep's -progress ticker
// and the periodic aggregate lines it appends to the metrics NDJSON.
type Telemetry struct {
	Done            int
	Total           int
	Workers         int // sweep worker goroutines
	Gomaxprocs      int // runtime.GOMAXPROCS when the snapshot was taken
	Shards          int // per-campaign host-kernel shards (0 = 1)
	ElapsedSeconds  float64
	CellsPerSec     float64
	ETASeconds      float64 // 0 when no cell has finished yet
	MeanCellSeconds float64 // mean wall time of finished cells (resumed excluded)
	TotalAllocMB    float64 // cumulative heap allocation (runtime.MemStats.TotalAlloc)
	SysMB           float64 // memory obtained from the OS (≈ peak RSS)

	// Prefix-sharing stats, present only when the sweep runs forked
	// (Forked gates them out of String and Fields so unforked telemetry
	// lines keep their exact shape). Filled at sweep end via RecordPrefix.
	Forked        bool
	PrefixGroups  int
	PrefixHits    int
	SavedSimWeeks float64

	// Parallel fan-out stats, present only when the sweep runs forked with
	// ForkWorkers > 1 (same gating idea as Forked: fan-out off keeps the
	// forked line shapes exactly as before). Filled via RecordFanout.
	ForkWorkers       int
	SnapshotBytes     int
	SnapshotCaptureNS int64
	SnapshotAdoptNS   int64
	AdoptedRunners    int
	ForksParallel     int
	ParallelSpeedup   float64
}

// String renders the one-line human-readable ticker form.
func (t Telemetry) String() string {
	s := fmt.Sprintf("progress: %d/%d cells, %.1fs elapsed, %.2f cells/s, eta %.0fs, %.1f MB sys",
		t.Done, t.Total, t.ElapsedSeconds, t.CellsPerSec, t.ETASeconds, t.SysMB)
	if t.Forked {
		s += fmt.Sprintf(", prefix: %d groups, %d forks, %.1f sim-weeks saved",
			t.PrefixGroups, t.PrefixHits, t.SavedSimWeeks)
	}
	if t.ForkWorkers > 1 {
		s += fmt.Sprintf(", fan-out: %d workers, %d adopted, %d parallel forks, %d snapshot B, %.2fx speedup",
			t.ForkWorkers, t.AdoptedRunners, t.ForksParallel, t.SnapshotBytes, t.ParallelSpeedup)
	}
	return s
}

// Fields renders the snapshot as obs fields for an NDJSON aggregate line
// (tagged event=sweep-telemetry so jq can separate it from metric samples).
func (t Telemetry) Fields() []obs.F {
	f := []obs.F{
		obs.Str("event", "sweep-telemetry"),
		obs.Int("done", int64(t.Done)),
		obs.Int("total", int64(t.Total)),
		obs.Int("workers", int64(t.Workers)),
		obs.Int("gomaxprocs", int64(t.Gomaxprocs)),
		obs.Int("shards", int64(t.Shards)),
		obs.Num("elapsed-s", t.ElapsedSeconds),
		obs.Num("cells-per-s", t.CellsPerSec),
		obs.Num("eta-s", t.ETASeconds),
		obs.Num("mean-cell-s", t.MeanCellSeconds),
		obs.Num("alloc-mb", t.TotalAllocMB),
		obs.Num("sys-mb", t.SysMB),
	}
	if t.Forked {
		f = append(f,
			obs.Int("prefix-groups", int64(t.PrefixGroups)),
			obs.Int("prefix-hits", int64(t.PrefixHits)),
			obs.Num("saved-sim-weeks", t.SavedSimWeeks),
		)
	}
	if t.ForkWorkers > 1 {
		f = append(f,
			obs.Int("fork-workers", int64(t.ForkWorkers)),
			obs.Int("snapshot_bytes", int64(t.SnapshotBytes)),
			obs.Int("snapshot_capture_ns", t.SnapshotCaptureNS),
			obs.Int("snapshot_adopt_ns", t.SnapshotAdoptNS),
			obs.Int("forks_parallel", int64(t.ForksParallel)),
			obs.Int("adopted-runners", int64(t.AdoptedRunners)),
			obs.Num("parallel-speedup-x", t.ParallelSpeedup),
		)
	}
	return f
}

// Tracker accumulates sweep telemetry from concurrent workers. Feed it from
// a Progress callback (Observe) and poll it from a ticker goroutine
// (Snapshot); both are safe concurrently.
type Tracker struct {
	// Workers, Shards and Forked describe the sweep's execution plan
	// (worker goroutines, per-campaign kernel shards, prefix sharing); set
	// them before the sweep starts and they are copied into every Snapshot.
	Workers int
	Shards  int
	Forked  bool
	// ForkWorkers is the parallel fan-out width (0 or 1 = sequential
	// forks); > 1 gates the fan-out stats into Snapshot output.
	ForkWorkers int

	mu      sync.Mutex
	start   time.Time
	total   int
	done    int
	ran     int // finished cells that actually simulated (not resumed)
	wallSum float64

	// Prefix-sharing totals, filled at sweep end via RecordPrefix.
	prefixGroups int
	prefixHits   int
	savedWeeks   float64

	// Parallel fan-out totals, filled at sweep end via RecordFanout.
	snapBytes int
	snapCapNS int64
	adoptNS   int64
	adopted   int
	forksPar  int
	speedup   float64
}

// RecordPrefix stores a finished forked sweep's prefix-sharing stats so
// the final Snapshot (summary line, closing telemetry NDJSON record)
// carries them.
func (tr *Tracker) RecordPrefix(groups, hits int, savedSimWeeks float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.prefixGroups, tr.prefixHits, tr.savedWeeks = groups, hits, savedSimWeeks
}

// RecordFanout stores a finished sweep's parallel fan-out stats (snapshot
// volume, capture/adopt time, adopted runners, forks run in parallel,
// speedup over a sequential walk of the same trees).
func (tr *Tracker) RecordFanout(bytes int, capNS, adoptNS int64, adopted, forksPar int, speedup float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.snapBytes, tr.snapCapNS, tr.adoptNS = bytes, capNS, adoptNS
	tr.adopted, tr.forksPar, tr.speedup = adopted, forksPar, speedup
}

// NewTracker starts tracking a sweep of total cells from now.
func NewTracker(total int) *Tracker {
	return &Tracker{start: time.Now(), total: total}
}

// Observe records one finished cell and its wall time (0 for a cell
// satisfied from the checkpoint).
func (tr *Tracker) Observe(wallSeconds float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.done++
	if wallSeconds > 0 {
		tr.ran++
		tr.wallSum += wallSeconds
	}
}

// Snapshot returns the current telemetry, including a fresh memory reading.
func (tr *Tracker) Snapshot() Telemetry {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t := Telemetry{
		Done:           tr.done,
		Total:          tr.total,
		Workers:        tr.Workers,
		Gomaxprocs:     runtime.GOMAXPROCS(0),
		Shards:         tr.Shards,
		ElapsedSeconds: time.Since(tr.start).Seconds(),
		TotalAllocMB:   float64(ms.TotalAlloc) / (1 << 20),
		SysMB:          float64(ms.Sys) / (1 << 20),
		Forked:         tr.Forked,
		PrefixGroups:   tr.prefixGroups,
		PrefixHits:     tr.prefixHits,
		SavedSimWeeks:  tr.savedWeeks,

		ForkWorkers:       tr.ForkWorkers,
		SnapshotBytes:     tr.snapBytes,
		SnapshotCaptureNS: tr.snapCapNS,
		SnapshotAdoptNS:   tr.adoptNS,
		AdoptedRunners:    tr.adopted,
		ForksParallel:     tr.forksPar,
		ParallelSpeedup:   tr.speedup,
	}
	if t.ElapsedSeconds > 0 && tr.done > 0 {
		t.CellsPerSec = float64(tr.done) / t.ElapsedSeconds
		t.ETASeconds = float64(tr.total-tr.done) / t.CellsPerSec
	}
	if tr.ran > 0 {
		t.MeanCellSeconds = tr.wallSum / float64(tr.ran)
	}
	return t
}

// cellProbe is one sweep worker's pooled observability kit: a registry and
// trace reused cell after cell, re-tagged per cell, exporting to the shared
// sinks. nil when neither sink is configured.
type cellProbe struct {
	probe       obs.Probe
	metricsSink *obs.Sink
}

// newCellProbe builds a worker probe over the sweep's sinks (either may be
// nil). Returns nil when both are nil — the zero-cost default.
func newCellProbe(metrics, trace *obs.Sink, sampleEvery float64) *cellProbe {
	if metrics == nil && trace == nil {
		return nil
	}
	cp := &cellProbe{metricsSink: metrics}
	cp.probe.SampleEvery = sampleEvery
	if metrics != nil {
		cp.probe.Metrics = obs.NewRegistry(0)
	}
	if trace != nil {
		cp.probe.Trace = obs.NewTrace(trace)
	}
	return cp
}

// arm re-tags the probe for one cell and returns it for the cell's config.
// Safe on a nil receiver (returns nil: probe disabled).
func (cp *cellProbe) arm(scenario string, rep int) *obs.Probe {
	if cp == nil {
		return nil
	}
	if cp.probe.Trace != nil {
		cp.probe.Trace.SetTags(obs.Str("scenario", scenario), obs.Int("rep", int64(rep)))
	}
	return &cp.probe
}

// flush exports the finished cell's metric samples, tagged with its cell
// identity. The registry is rebound by the next run's bindProbe, so samples
// must leave now. Safe on a nil receiver.
func (cp *cellProbe) flush(scenario string, rep int) {
	if cp == nil || cp.probe.Metrics == nil {
		return
	}
	cp.probe.Metrics.WriteNDJSON(cp.metricsSink,
		obs.Str("scenario", scenario), obs.Int("rep", int64(rep)))
}
