// Package credit implements the points-based accounting the paper's
// conclusion proposes as a middleware-independent alternative to run-time
// based virtual full-time processors.
//
// "Points represent the amount of work done by a computer to compute a
// result and are based on the run time for that result multiplied by a
// weight factor determined by running a benchmark on the agent. This
// approach should reduce the differences between each platform therefore be
// more middleware independent. This approach should also allow us to
// observe the trend toward more powerful processors in desktop computers."
//
// A device's weight is its benchmark score relative to the reference
// processor; points for a result are reported run time × weight. Because
// the weight cancels the device's slowness, points measure delivered
// reference work — insensitive to whether the agent counted wall-clock
// (UD) or process CPU time (BOINC), as long as the benchmark ran under the
// same accounting.
package credit

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// ReferenceScore is the benchmark score of the reference processor
// (Opteron 2 GHz); a device scoring half of this earns half the points per
// reported hour.
const ReferenceScore = 100.0

// Device is one volunteer machine from the accounting point of view.
type Device struct {
	ID       int
	Score    float64 // benchmark score (ReferenceScore = reference CPU)
	JoinedAt float64 // seconds since grid launch
}

// Weight returns the device's points weight.
func (d Device) Weight() float64 {
	if d.Score <= 0 {
		panic(fmt.Sprintf("credit: device %d has non-positive score %v", d.ID, d.Score))
	}
	return d.Score / ReferenceScore
}

// Result is one returned workunit result from the accounting point of view.
type Result struct {
	Device    int
	ReportedS float64 // run time the agent reported, seconds
	At        float64 // completion time, seconds since grid launch
}

// Ledger accumulates the points granted over a run, the run time reported
// for them, and the registered devices' benchmark scores.
//
// Devices are a dense slice indexed by device ID: device IDs in this
// repository are small sequential integers (the volunteer population's
// join counter), so a credited result costs one array access instead of a
// map lookup. A slot with Score == 0 is unregistered (Register rejects
// non-positive scores, so a registered device always has Score > 0).
type Ledger struct {
	devices []Device // by device ID; Score == 0 marks an empty slot
	n       int      // registered devices
	total   float64
	// reported run time total, for the VFTP comparison
	reportedS float64
}

// NewLedger creates an empty points ledger.
func NewLedger() *Ledger {
	return &Ledger{}
}

// Reset empties the ledger for another run, retaining the dense device
// slice so a pooled run context accumulates without allocating.
func (l *Ledger) Reset() {
	clear(l.devices)
	l.devices = l.devices[:0]
	l.n = 0
	l.total, l.reportedS = 0, 0
}

// Register adds (or updates) a device. IDs must be non-negative; the
// ledger is dense in the ID, so IDs should be small sequential integers
// (a sparse ID costs one empty slot per skipped value).
func (l *Ledger) Register(d Device) {
	d.Weight() // validate
	if d.ID < 0 {
		panic(fmt.Sprintf("credit: negative device ID %d", d.ID))
	}
	for len(l.devices) <= d.ID {
		l.devices = append(l.devices, Device{})
	}
	if l.devices[d.ID].Score == 0 {
		l.n++
	}
	l.devices[d.ID] = d
}

// PointsPerSecond is the points a reference processor earns per reported
// second — an arbitrary unit chosen so one reference-hour ≈ 1 point.
const PointsPerSecond = 1.0 / 3600

// Credit grants points for a result: reported time × device weight.
// It returns the points granted and an error if the device is unknown,
// the reported time is negative, or the completion time is negative.
func (l *Ledger) Credit(r Result) (float64, error) {
	if r.Device < 0 || r.Device >= len(l.devices) || l.devices[r.Device].Score == 0 {
		return 0, fmt.Errorf("credit: unknown device %d", r.Device)
	}
	if r.ReportedS < 0 {
		return 0, fmt.Errorf("credit: negative reported time %v", r.ReportedS)
	}
	if r.At < 0 {
		return 0, fmt.Errorf("credit: negative completion time %v", r.At)
	}
	pts := r.ReportedS * l.devices[r.Device].Weight() * PointsPerSecond
	l.total += pts
	l.reportedS += r.ReportedS
	return pts, nil
}

// Total returns all points granted.
func (l *Ledger) Total() float64 { return l.total }

// AccountingBias compares the two metrics over the whole ledger: how much
// the run-time VFTP overstates the points VFTP. For a fleet of devices
// slower than the reference, run-time VFTP counts a slow hour the same as a
// fast one, so the bias is the reported-time-weighted mean of 1/weight.
func (l *Ledger) AccountingBias() float64 {
	if l.total == 0 {
		return math.NaN()
	}
	// reported seconds per point-second:
	return l.reportedS * PointsPerSecond / l.total
}

// PowerTrend fits a line to device benchmark scores against their join
// times (in weeks): the conclusion's "trend toward more powerful processors
// in desktop computers". Returns the score gained per week and the fit.
func (l *Ledger) PowerTrend() (perWeek float64, fit stats.LinearFit, ok bool) {
	if l.n < 2 {
		return 0, stats.LinearFit{}, false
	}
	// The dense slice iterates in ID order by construction, which keeps the
	// fit's order-sensitive floating-point sums bit-for-bit reproducible
	// (the property the pre-dense ledger got from sorting its map keys).
	xs := make([]float64, 0, l.n)
	ys := make([]float64, 0, l.n)
	for _, d := range l.devices {
		if d.Score == 0 {
			continue
		}
		xs = append(xs, d.JoinedAt/(7*86400))
		ys = append(ys, d.Score)
	}
	// Guard against a degenerate same-join-time population.
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
	fit = stats.FitLine(xs, ys)
	return fit.A, fit, true
}
