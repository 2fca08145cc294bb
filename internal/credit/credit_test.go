package credit

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestWeight(t *testing.T) {
	d := Device{ID: 1, Score: 50}
	if d.Weight() != 0.5 {
		t.Fatalf("weight = %v", d.Weight())
	}
	ref := Device{ID: 2, Score: ReferenceScore}
	if ref.Weight() != 1 {
		t.Fatalf("reference weight = %v", ref.Weight())
	}
}

func TestWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Device{ID: 1, Score: 0}.Weight()
}

func TestCreditGrants(t *testing.T) {
	l := NewLedger()
	l.Register(Device{ID: 1, Score: ReferenceScore})
	pts, err := l.Credit(Result{Device: 1, ReportedS: 3600})
	if err != nil {
		t.Fatal(err)
	}
	// One reference hour = one point.
	if math.Abs(pts-1) > 1e-12 {
		t.Fatalf("points = %v", pts)
	}
	if l.Total() != pts {
		t.Fatal("ledger totals wrong")
	}
}

func TestCreditCancelsDeviceSpeed(t *testing.T) {
	// A half-speed device reporting twice the time earns the same points:
	// points measure delivered reference work.
	l := NewLedger()
	l.Register(Device{ID: 1, Score: ReferenceScore})
	l.Register(Device{ID: 2, Score: ReferenceScore / 2})
	fast, _ := l.Credit(Result{Device: 1, ReportedS: 3600})
	slow, _ := l.Credit(Result{Device: 2, ReportedS: 7200})
	if math.Abs(fast-slow) > 1e-12 {
		t.Fatalf("points differ: %v vs %v", fast, slow)
	}
}

func TestCreditErrors(t *testing.T) {
	l := NewLedger()
	if _, err := l.Credit(Result{Device: 9, ReportedS: 1}); err == nil {
		t.Fatal("unknown device accepted")
	}
	l.Register(Device{ID: 1, Score: 100})
	if _, err := l.Credit(Result{Device: 1, ReportedS: -1}); err == nil {
		t.Fatal("negative time accepted")
	}
}

func TestAccountingBias(t *testing.T) {
	// A fleet of half-speed devices: run-time VFTP counts their hours at
	// face value, points halve them — bias 2.
	l := NewLedger()
	l.Register(Device{ID: 1, Score: 50})
	l.Credit(Result{Device: 1, ReportedS: 3600})
	if got := l.AccountingBias(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("bias = %v", got)
	}
	empty := NewLedger()
	if !math.IsNaN(empty.AccountingBias()) {
		t.Fatal("empty ledger should be NaN")
	}
}

func TestAccountingBiasMatchesPaperIntuition(t *testing.T) {
	// §6: a WCG VFTP is ~4× weaker than the reference processor. If
	// devices' effective scores average 1/3.96 of the reference, the
	// run-time metric overstates delivered work by ≈ 3.96 — exactly the
	// paper's speed-down.
	l := NewLedger()
	r := rng.New(7)
	for i := 0; i < 500; i++ {
		score := ReferenceScore / 3.96 * (0.5 + r.Float64())
		l.Register(Device{ID: i, Score: score})
	}
	for i := 0; i < 500; i++ {
		l.Credit(Result{Device: i, ReportedS: 3600 * (1 + 10*r.Float64())})
	}
	bias := l.AccountingBias()
	if bias < 3 || bias > 5.5 {
		t.Fatalf("bias = %v, want ≈ 4", bias)
	}
}

func TestPowerTrend(t *testing.T) {
	l := NewLedger()
	// Devices joining later are faster: +2 score/week plus noise.
	r := rng.New(3)
	for i := 0; i < 200; i++ {
		week := float64(i % 50)
		l.Register(Device{
			ID:       i,
			Score:    60 + 2*week + r.Normal(0, 3),
			JoinedAt: week * 7 * 86400,
		})
	}
	perWeek, fit, ok := l.PowerTrend()
	if !ok {
		t.Fatal("trend not computed")
	}
	if perWeek < 1.5 || perWeek > 2.5 {
		t.Fatalf("trend %v score/week, want ≈ 2", perWeek)
	}
	if fit.R2 < 0.9 {
		t.Fatalf("R² = %v", fit.R2)
	}
}

func TestPowerTrendDegenerate(t *testing.T) {
	l := NewLedger()
	if _, _, ok := l.PowerTrend(); ok {
		t.Fatal("empty ledger should have no trend")
	}
	l.Register(Device{ID: 1, Score: 100})
	l.Register(Device{ID: 2, Score: 120})
	// Same join time: no trend computable.
	if _, _, ok := l.PowerTrend(); ok {
		t.Fatal("same-join-time fleet should have no trend")
	}
}

// mapLedger is the pre-dense reference implementation: the ledger exactly
// as it was when backed by map[int] lookups. The equivalence test feeds it
// and the dense Ledger the same traffic and demands bit-identical output.
type mapLedger struct {
	devices   map[int]Device
	total     float64
	reportedS float64
}

func newMapLedger() *mapLedger {
	return &mapLedger{devices: make(map[int]Device)}
}

func (l *mapLedger) register(d Device) { l.devices[d.ID] = d }

func (l *mapLedger) credit(r Result) float64 {
	d := l.devices[r.Device]
	pts := r.ReportedS * d.Weight() * PointsPerSecond
	l.total += pts
	l.reportedS += r.ReportedS
	return pts
}

func (l *mapLedger) accountingBias() float64 { return l.reportedS * PointsPerSecond / l.total }

func (l *mapLedger) powerTrend() (float64, stats.LinearFit, bool) {
	if len(l.devices) < 2 {
		return 0, stats.LinearFit{}, false
	}
	ids := make([]int, 0, len(l.devices))
	for id := range l.devices {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	xs := make([]float64, 0, len(l.devices))
	ys := make([]float64, 0, len(l.devices))
	for _, id := range ids {
		d := l.devices[id]
		xs = append(xs, d.JoinedAt/(7*86400))
		ys = append(ys, d.Score)
	}
	allSame := true
	for _, x := range xs[1:] {
		if x != xs[0] {
			allSame = false
			break
		}
	}
	if allSame {
		return 0, stats.LinearFit{}, false
	}
	fit := stats.FitLine(xs, ys)
	return fit.A, fit, true
}

// TestDenseLedgerMatchesMapReference is the byte-determinism regression
// for the dense data plane: on randomized fleets and result streams, every
// ledger output must be bit-for-bit identical (math.Float64bits, not
// epsilon) to the pre-change map-backed implementation.
func TestDenseLedgerMatchesMapReference(t *testing.T) {
	same := func(name string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s diverged: dense %v (%x) vs map %v (%x)",
				name, a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
	for trial := 0; trial < 5; trial++ {
		r := rng.New(uint64(100 + trial))
		dense := NewLedger()
		ref := newMapLedger()
		nDev := 50 + r.Intn(200)
		for id := 0; id < nDev; id++ {
			d := Device{
				ID:       id,
				Score:    ReferenceScore * (0.2 + r.Float64()),
				JoinedAt: r.Float64() * 30 * 7 * 86400,
			}
			dense.Register(d)
			ref.register(d)
		}
		for i := 0; i < 5000; i++ {
			res := Result{
				Device:    r.Intn(nDev),
				ReportedS: r.Float64() * 1e5,
				At:        r.Float64() * 40 * 7 * 86400,
			}
			got, err := dense.Credit(res)
			if err != nil {
				t.Fatal(err)
			}
			same("per-result points", got, ref.credit(res))
		}
		same("total", dense.Total(), ref.total)
		same("accounting bias", dense.AccountingBias(), ref.accountingBias())
		dTrend, dFit, dOK := dense.PowerTrend()
		mTrend, mFit, mOK := ref.powerTrend()
		if dOK != mOK {
			t.Fatalf("trend availability diverged: %v vs %v", dOK, mOK)
		}
		same("trend", dTrend, mTrend)
		same("trend R2", dFit.R2, mFit.R2)
		same("trend intercept", dFit.B, mFit.B)
	}
}

func TestLedgerReset(t *testing.T) {
	run := func(l *Ledger) (total, bias, trend float64) {
		l.Register(Device{ID: 0, Score: 80, JoinedAt: 0})
		l.Register(Device{ID: 1, Score: 120, JoinedAt: 7 * 86400})
		l.Register(Device{ID: 2, Score: 140, JoinedAt: 14 * 86400})
		for i := 0; i < 300; i++ {
			if _, err := l.Credit(Result{Device: i % 3, ReportedS: float64(1000 + i), At: float64(i) * 86400}); err != nil {
				t.Fatal(err)
			}
		}
		trend, _, _ = l.PowerTrend()
		return l.Total(), l.AccountingBias(), trend
	}
	fresh := NewLedger()
	wantT, wantB, wantR := run(fresh)

	reused := NewLedger()
	reused.Register(Device{ID: 7, Score: 50})
	reused.Credit(Result{Device: 7, ReportedS: 12345, At: 3e6})
	reused.Reset()
	if reused.Total() != 0 {
		t.Fatalf("reset ledger kept points: total=%v", reused.Total())
	}
	if _, err := reused.Credit(Result{Device: 7, ReportedS: 1}); err == nil {
		t.Fatal("reset ledger kept device registrations")
	}
	gotT, gotB, gotR := run(reused)
	if math.Float64bits(gotT) != math.Float64bits(wantT) ||
		math.Float64bits(gotR) != math.Float64bits(wantR) ||
		math.Float64bits(gotB) != math.Float64bits(wantB) {
		t.Fatalf("reused ledger diverged: %v/%v %v/%v %v/%v", gotT, wantT, gotB, wantB, gotR, wantR)
	}
}

func TestLedgerRejectsBadResults(t *testing.T) {
	l := NewLedger()
	l.Register(Device{ID: 3, Score: 100})
	if _, err := l.Credit(Result{Device: 3, ReportedS: 1, At: -1}); err == nil {
		t.Fatal("negative completion time accepted")
	}
	if _, err := l.Credit(Result{Device: -1, ReportedS: 1}); err == nil {
		t.Fatal("negative device ID accepted")
	}
	if _, err := l.Credit(Result{Device: 2, ReportedS: 1}); err == nil {
		t.Fatal("unregistered in-range device accepted")
	}
}

func BenchmarkCredit(b *testing.B) {
	l := NewLedger()
	l.Register(Device{ID: 1, Score: 100})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Credit(Result{Device: 1, ReportedS: 3600, At: float64(i)})
	}
}
