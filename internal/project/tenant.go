package project

import (
	"math"
	"sort"

	"repro/internal/credit"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vftp"
	"repro/internal/volunteer"
	"repro/internal/wcg"
	"repro/internal/workunit"
)

// slicePlan is the precomputed packaging of one (receptor, ligand) couple:
// the workunit slicing is decided once in prepare() and reused verbatim by
// releaseBatch, instead of being recomputed at release time.
type slicePlan struct {
	ligand int
	nsep   int // starting positions per workunit (SliceCouple)
}

// batch is one receptor's worth of work.
type batch struct {
	receptor  int
	cost      float64 // ref-seconds (scaled)
	remaining int     // workunits not yet completed
	total     int
	doneRef   float64     // ref-seconds completed
	plan      []slicePlan // release plan, one entry per sampled ligand
}

// tenant is one project's machinery in the run context: its middleware
// server, its batches and release order, its feed loop state, and its
// Report. A single-project campaign carries one tenant bound straight to
// the host fleet; a co-run carries N behind the mux. The engine, host
// kernel, credit ledger and tickers belong to the run context (Campaign),
// whose weekly and daily ticks loop over the tenants — a tenant only ever
// touches its own server and accounting.
//
// Reset contract (PR3): reset() retains the batch array, the slicing-plan
// capacity, the weekly accumulators, the ligand-sampling scratch and the
// report's series/histogram buffers; Campaign.arm Resets the server
// (arenas retained) alongside.
type tenant struct {
	cfg    Config
	server *wcg.Server

	batches []batch
	order   []int // batch release order (indexes into batches)

	next        int // next batch to release
	outstanding int // batches released but not completed

	weeklyCPU   []float64
	weeklyCount []int64

	// Reusable scratch: the ligand-sampling bitset (one bit per ligand
	// column) and the sampled-index buffer, shared by every releaseBatch
	// and every pooled run.
	seenBits   []uint64
	ligScratch []int

	// Weekly-loop state. Tenant fields (not run-locals) so a portable
	// snapshot of the tenant carries the loop state into an adopted fork.
	done     bool
	doneWeek float64
	snapIdx  int
	coCPU    float64 // CPUSeconds when the co-run share window closed

	// Observability plane (nil/zero when the run is unprobed; see
	// observe.go). obsName distinguishes tenants on a shared grid; obsPhase
	// lives here rather than as a Run local so the weekly closure does not
	// grow a heap cell on the nil-probe path.
	probe     *obs.Probe
	obsEngine *sim.Engine
	obsName   string
	obsPhase  string

	report Report
}

// initTenant arms a fresh tenant: configuration stored, report seeded.
// Campaign.arm creates the server (it owns the engine binding).
func (t *tenant) initTenant(cfg Config, server *wcg.Server) {
	t.cfg = cfg
	t.server = server
	t.report.Config = cfg
	t.report.ReportedHours = stats.NewHistogram(0, 80, 80)
}

// reset rearms the tenant for another run under a new configuration,
// retaining every backing buffer. Campaign.arm Resets the server first.
func (t *tenant) reset(cfg Config) {
	t.cfg = cfg
	t.next, t.outstanding = 0, 0
	t.done, t.doneWeek, t.snapIdx, t.coCPU = false, 0, 0, 0
	t.probe, t.obsEngine, t.obsName, t.obsPhase = nil, nil, "", ""
	t.weeklyCPU = t.weeklyCPU[:0]
	t.weeklyCount = t.weeklyCount[:0]

	r := &t.report
	hist := r.ReportedHours
	hcmd, grid, results := r.HCMDVFTP, r.GridVFTP, r.ResultsWeek
	snaps := r.Snapshots[:0]
	*r = Report{Config: cfg}
	hist.Reset()
	r.ReportedHours = hist
	r.HCMDVFTP, r.GridVFTP, r.ResultsWeek = hcmd, grid, results
	r.Snapshots = snaps
}

// release drops every backing buffer at the end of a one-shot run so a
// caller keeping the Report does not pin the dead simulation's arenas.
func (t *tenant) release() {
	t.server = nil
	t.batches, t.order = nil, nil
	t.weeklyCPU, t.weeklyCount = nil, nil
	t.seenBits, t.ligScratch = nil, nil
	t.probe, t.obsEngine = nil, nil
}

// bind points the server's completion callbacks at this tenant's batch and
// weekly accounting (per run: the callbacks are cleared by server Reset).
func (t *tenant) bind() {
	t.server.OnComplete = func(st *wcg.WUState) {
		b := &t.batches[st.Batch]
		b.remaining--
		b.doneRef += st.RefSeconds
		if b.remaining == 0 {
			t.outstanding--
		}
	}
	t.server.OnWeekCPU = func(week int, cpu float64) {
		for len(t.weeklyCPU) <= week {
			t.weeklyCPU = append(t.weeklyCPU, 0)
			t.weeklyCount = append(t.weeklyCount, 0)
		}
		t.weeklyCPU[week] += cpu
		t.weeklyCount[week]++
		t.report.ReportedHours.Add(cpu / 3600)
	}
}

// ligandsFor returns the (possibly subsampled) ligand list for a receptor.
// The sample is offset by the receptor index so that across receptors every
// ligand column is drawn evenly — plain striding from 0 would bias the
// scaled workload toward a few ligands' cost profile.
//
// The returned slice is scratch owned by the tenant, valid until the
// next ligandsFor call; the sampling set is a reusable bitset, so repeated
// batch releases allocate nothing once the scratch has grown.
func (t *tenant) ligandsFor(receptor int) []int {
	n := t.cfg.DS.Len()
	count := int(math.Round(float64(n) * t.cfg.WorkScale))
	if count < 1 {
		count = 1
	}
	out := t.ligScratch[:0]
	if count >= n {
		for j := 0; j < n; j++ {
			out = append(out, j)
		}
		t.ligScratch = out
		return out
	}
	words := (n + 63) / 64
	if cap(t.seenBits) < words {
		t.seenBits = make([]uint64, words)
	}
	seen := t.seenBits[:words]
	clear(seen)
	stride := float64(n) / float64(count)
	// The offset multiplies the receptor index by a constant coprime with
	// typical dataset sizes so the sampled ligand is unrelated to the
	// receptor (receptor+k would select the diagonal at count=1, which is
	// systematically more expensive: big receptors dock big ligands).
	const scatter = 53
	for k := 0; k < count; k++ {
		j := (receptor*scatter + int(math.Round(float64(k)*stride))) % n
		for seen[j>>6]&(1<<(j&63)) != 0 {
			j = (j + 1) % n
		}
		seen[j>>6] |= 1 << (j & 63)
		out = append(out, j)
	}
	t.ligScratch = out
	return out
}

// prepare builds batches and their release order, reusing the previous
// run's batch array and slicing-plan capacity when the tenant is pooled.
func (t *tenant) prepare() {
	ds, m := t.cfg.DS, t.cfg.M
	if cap(t.batches) < ds.Len() {
		t.batches = make([]batch, ds.Len())
	} else {
		t.batches = t.batches[:ds.Len()]
	}
	for i := range t.batches {
		b := &t.batches[i]
		*b = batch{receptor: i, plan: b.plan[:0]}
		ligands := t.ligandsFor(i)
		for _, j := range ligands {
			nsep := workunit.SliceCouple(t.cfg.HHours*3600, m.At(i, j), ds.Proteins[i].Nsep)
			b.plan = append(b.plan, slicePlan{ligand: j, nsep: nsep})
			b.total += workunit.CoupleCount(ds.Proteins[i].Nsep, nsep)
			b.cost += float64(ds.Proteins[i].Nsep) * m.At(i, j)
		}
		b.remaining = b.total
		t.report.TotalRefWork += b.cost
		t.report.DistinctWUs += int64(b.total)
	}
	if cap(t.order) < len(t.batches) {
		t.order = make([]int, len(t.batches))
	} else {
		t.order = t.order[:len(t.batches)]
	}
	for i := range t.order {
		t.order[i] = i
	}
	switch t.cfg.Order {
	case CheapestFirst:
		sort.SliceStable(t.order, func(a, b int) bool {
			return t.batches[t.order[a]].cost < t.batches[t.order[b]].cost
		})
	case CostliestFirst:
		sort.SliceStable(t.order, func(a, b int) bool {
			return t.batches[t.order[a]].cost > t.batches[t.order[b]].cost
		})
	case RandomOrder:
		rng.New(t.cfg.Seed+99).Shuffle(len(t.order), func(a, b int) {
			t.order[a], t.order[b] = t.order[b], t.order[a]
		})
	}
}

// releaseBatch feeds one receptor's workunits to the server, following the
// slicing plan prepare() computed.
func (t *tenant) releaseBatch(orderIdx int) {
	bi := t.order[orderIdx]
	b := &t.batches[bi]
	ds, m := t.cfg.DS, t.cfg.M
	rec := b.receptor
	total := ds.Proteins[rec].Nsep
	for _, p := range b.plan {
		cost := m.At(rec, p.ligand)
		for lo := 1; lo <= total; lo += p.nsep {
			hi := lo + p.nsep - 1
			if hi > total {
				hi = total
			}
			t.server.AddWorkunit(workunit.Workunit{RefSeconds: float64(hi-lo+1) * cost}, bi)
		}
	}
	t.outstanding++
	if t.probe != nil {
		t.emit(t.obsEngine.Now(), "batch-release",
			obs.Int("receptor", int64(rec)),
			obs.Int("order", int64(orderIdx)),
			obs.Int("wus", int64(b.total)),
			obs.Num("ref-seconds", b.cost))
	}
}

// feed keeps the server stocked: release batches until pending work covers
// several days of the active population's consumption (a typical workunit
// takes ~13 reported hours, so ~8 workunits per host per feed interval is a
// comfortable buffer). active is the shared population's current size —
// on a multi-project grid every tenant buffers against the whole
// population, which costs nothing but queue depth and guarantees a tenant
// never starves its own mux slice.
func (t *tenant) feed(active int) {
	low := feedLow(active)
	for t.next < len(t.order) && t.server.PendingCount() < low {
		t.releaseBatch(t.next)
		t.next++
	}
}

// feedLow is the queue depth feed() restocks to for the given population.
func feedLow(active int) int {
	low := 12 * active
	if low < 64 {
		low = 64
	}
	return low
}

func (t *tenant) allDone() bool {
	return t.next >= len(t.order) && t.outstanding == 0
}

// draining reports whether the tenant has stopped contending for the
// shared population: every batch is released and the queue has fallen
// below the feed restock level, so the tenant can no longer absorb its
// resource-share slice and the mux hands its time to the others. The
// co-run share window closes at the first tenant's drain, not its last
// validation — the wind-down tail is not contention.
func (t *tenant) draining(active int) bool {
	return t.next >= len(t.order) && t.server.PendingCount() < feedLow(active)
}

func (t *tenant) captureSnapshot(week float64) {
	s := Snapshot{Week: week, PerBatch: make([]float64, len(t.order))}
	var doneRef, totalRef float64
	for i, bi := range t.order {
		b := &t.batches[bi]
		frac := 0.0
		if b.cost > 0 {
			frac = b.doneRef / b.cost
			if frac > 1 {
				frac = 1
			}
		}
		s.PerBatch[i] = frac
		if b.remaining == 0 {
			s.BatchesDone++
		}
		doneRef += b.doneRef
		totalRef += b.cost
	}
	if totalRef > 0 {
		s.OverallFraction = doneRef / totalRef
	}
	t.report.Snapshots = append(t.report.Snapshots, s)
	if t.probe != nil {
		t.emit(week*sim.Week, "snapshot",
			obs.Num("snap-week", week),
			obs.Num("fraction", s.OverallFraction),
			obs.Int("batches-done", int64(s.BatchesDone)))
	}
}

// finishReport fills the tenant-scoped part of the report: completion,
// server stats and the de-scaled weekly series. The fleet- and
// engine-scoped part (mean speed-down, §8 points accounting, kernel
// accounting) is the run's: a single-project campaign fills it into this
// report, a Grid into the GridReport instead.
func (t *tenant) finishReport() {
	r := &t.report
	r.Completed = t.done
	r.ServerStats = t.server.Stats
	if t.done {
		r.WeeksElapsed = t.doneWeek
	} else {
		r.WeeksElapsed = t.cfg.MaxWeeks
	}

	// De-scale the weekly series to real units. The series buffers are
	// reused when the tenant is pooled (reset keeps them in the report).
	r.HCMDVFTP = resetSeries(r.HCMDVFTP, "hcmd-vftp")
	r.ResultsWeek = resetSeries(r.ResultsWeek, "results-per-week")
	r.GridVFTP = resetSeries(r.GridVFTP, "grid-vftp")
	nWeeks := int(r.WeeksElapsed)
	if nWeeks > len(t.weeklyCPU) {
		nWeeks = len(t.weeklyCPU)
	}
	for w := 0; w < nWeeks; w++ {
		v := vftp.FromCPU(t.weeklyCPU[w], 7*vftp.SecondsPerDay) / t.cfg.HostScale
		r.HCMDVFTP.Add(float64(w), v)
		r.ResultsWeek.Add(float64(w), float64(t.weeklyCount[w])/t.cfg.WorkScale)
		r.GridVFTP.Add(float64(w), t.cfg.Grid.VFTPAt(CampaignStartWeek+float64(w)))
	}
	if r.HCMDVFTP.Len() > 0 {
		r.AvgVFTPWhole = r.HCMDVFTP.YMean()
		fp := r.HCMDVFTP.Window(t.cfg.ControlWeeks+t.cfg.RampWeeks, math.Inf(1))
		if fp.Len() > 0 {
			r.AvgVFTPFullPower = fp.YMean()
		}
	}
	if r.ServerStats.Received > 0 {
		r.MeanReportedH = r.ServerStats.CPUSeconds / float64(r.ServerStats.Received) / 3600
	}
}

// creditFleet runs the §8 points accounting over a host fleet in join
// order: each device's benchmark score is the reference score divided by
// its hardware factor. Returns (points total, accounting bias, hardware
// trend). The ledger's dense slices are reused across pooled runs.
func creditFleet(k *volunteer.ShardKernel, ledger *credit.Ledger) (total, bias, trend float64) {
	for id := range k.TotalJoined() {
		hw, joined, cpu := k.HostAccounting(id)
		ledger.Register(credit.Device{
			ID:       id,
			Score:    credit.ReferenceScore / hw,
			JoinedAt: joined,
		})
		if cpu > 0 {
			if _, err := ledger.Credit(credit.Result{Device: id, ReportedS: cpu, At: joined}); err != nil {
				panic(err) // devices were just registered; cannot happen
			}
		}
	}
	total = ledger.Total()
	bias = ledger.AccountingBias()
	if tr, _, ok := ledger.PowerTrend(); ok {
		trend = tr
	}
	return total, bias, trend
}

// resetSeries empties s for reuse, creating it on a tenant's first run.
func resetSeries(s *stats.Series, name string) *stats.Series {
	if s == nil {
		return stats.NewSeries(name)
	}
	s.Reset()
	s.Name = name
	return s
}
