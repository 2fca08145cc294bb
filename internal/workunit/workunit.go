// Package workunit implements the §4.2 workunit packaging algorithm: slicing
// the whole HCMD computation into pieces of work that each last approximately
// h hours on the reference processor.
//
// A workunit is defined for exactly one couple of proteins (a technical
// constraint: merging result files across couples would be needless work)
// and covers a contiguous range of starting positions with the full
// 21-rotation sweep. The number of starting positions packed into a workunit
// for couple (p1, p2) is
//
//	nsep = 1               if ⌊h / Mct(p1,p2)⌋ ≤ 1
//	nsep = Nsep(p1)        if ⌊h / Mct(p1,p2)⌋ ≥ Nsep(p1)
//	nsep = ⌊h / Mct(p1,p2)⌋ otherwise
//
// With the full 168-protein matrix this yields 1,364,476 workunits at
// h = 10 hours and 3,599,937 at h = 4 hours (Figure 4).
package workunit

import (
	"fmt"
	"math"

	"repro/internal/costmodel"
	"repro/internal/protein"
	"repro/internal/stats"
)

// Workunit is one piece of work: a couple and a range of starting positions.
type Workunit struct {
	ID         int64
	Receptor   int     // protein index p1 (the grid's fixed protein)
	Ligand     int     // protein index p2 (the mobile protein)
	ISepLo     int     // first starting position, 1-based inclusive
	ISepHi     int     // last starting position, inclusive
	RefSeconds float64 // predicted duration on the reference processor
}

// SliceCouple computes the per-workunit nsep for one couple, following the
// §4.2 clamped-quotient rule. hSeconds is the wanted duration and perIsep
// the couple's matrix entry (seconds per starting position).
func SliceCouple(hSeconds, perIsep float64, nsepTotal int) int {
	if !(hSeconds > 0) || !(perIsep > 0) || nsepTotal <= 0 {
		panic(fmt.Sprintf("workunit: invalid slice inputs h=%v ct=%v Nsep=%d", hSeconds, perIsep, nsepTotal))
	}
	// Clamp the float quotient before converting it: past 2^63 the
	// conversion to int is implementation-dependent.
	q := math.Floor(hSeconds / perIsep)
	if q <= 1 {
		return 1
	}
	if q >= float64(nsepTotal) {
		return nsepTotal
	}
	return int(q)
}

// CoupleCount returns the number of workunits one couple generates at the
// given slicing: ⌈Nsep / nsep⌉.
func CoupleCount(nsepTotal, nsep int) int {
	return (nsepTotal + nsep - 1) / nsep
}

// Plan lazily enumerates the workunits of a campaign without materializing
// them (the h = 4 catalog has 3.6 M entries; callers that only need counts
// and histograms should stream).
type Plan struct {
	DS      *protein.Dataset
	M       *costmodel.Matrix
	hSecs   float64
	couples [][2]int // explicit couple order; nil = all (p1, p2) pairs
}

// NewPlan creates a packaging plan for every ordered couple of the dataset
// at the wanted workunit duration (hours on the reference processor).
func NewPlan(ds *protein.Dataset, m *costmodel.Matrix, hHours float64) *Plan {
	if ds.Len() != m.N {
		panic("workunit: dataset/matrix size mismatch")
	}
	if hHours <= 0 {
		panic("workunit: wanted duration must be positive")
	}
	return &Plan{DS: ds, M: m, hSecs: hHours * 3600}
}

// WithCouples restricts the plan to an explicit ordered couple list
// (used by the campaign orchestration, which launches one receptor after
// another, and by scaled-down simulations).
func (p *Plan) WithCouples(couples [][2]int) *Plan {
	q := *p
	q.couples = couples
	return &q
}

// ForEachCouple invokes fn for every couple in plan order with the couple's
// slicing: receptor, ligand, per-isep cost, nsep per workunit.
func (p *Plan) ForEachCouple(fn func(rec, lig int, perIsep float64, nsep int)) {
	emit := func(i, j int) {
		perIsep := p.M.At(i, j)
		nsep := SliceCouple(p.hSecs, perIsep, p.DS.Proteins[i].Nsep)
		fn(i, j, perIsep, nsep)
	}
	if p.couples != nil {
		for _, c := range p.couples {
			emit(c[0], c[1])
		}
		return
	}
	for i := 0; i < p.DS.Len(); i++ {
		for j := 0; j < p.DS.Len(); j++ {
			emit(i, j)
		}
	}
}

// ForEach invokes fn for every workunit in plan order. Workunit IDs are
// assigned sequentially from 0. Returning false from fn stops the
// enumeration early.
func (p *Plan) ForEach(fn func(Workunit) bool) {
	var id int64
	stop := false
	p.ForEachCouple(func(rec, lig int, perIsep float64, nsep int) {
		if stop {
			return
		}
		total := p.DS.Proteins[rec].Nsep
		for lo := 1; lo <= total; lo += nsep {
			hi := lo + nsep - 1
			if hi > total {
				hi = total
			}
			w := Workunit{
				ID:       id,
				Receptor: rec, Ligand: lig,
				ISepLo: lo, ISepHi: hi,
				RefSeconds: float64(hi-lo+1) * perIsep,
			}
			id++
			if !fn(w) {
				stop = true
				return
			}
		}
	})
}

// Summary aggregates a plan: Figure 4's workunit count and duration
// histogram plus conservation checks.
type Summary struct {
	Count        int64
	TotalSeconds float64 // Σ predicted durations = formula (1) total
	MeanSeconds  float64
	Hist         *stats.Histogram // duration histogram, hours on the reference CPU
}

// Summarize streams the plan once and aggregates it. The histogram spans
// [0, histMaxHours) with one bin per histBinsPerHour⁻¹... bins of equal
// width; Figure 4 uses 0–14 h with half-hour bins.
func (p *Plan) Summarize(histMaxHours float64, bins int) Summary {
	s := Summary{Hist: stats.NewHistogram(0, histMaxHours, bins)}
	p.ForEachCouple(func(rec, lig int, perIsep float64, nsep int) {
		total := p.DS.Proteins[rec].Nsep
		nFull := total / nsep
		rem := total % nsep
		fullDur := float64(nsep) * perIsep
		s.Count += int64(nFull)
		s.TotalSeconds += float64(nFull) * fullDur
		s.Hist.AddN(fullDur/3600, nFull)
		if rem > 0 {
			remDur := float64(rem) * perIsep
			s.Count++
			s.TotalSeconds += remDur
			s.Hist.Add(remDur / 3600)
		}
	})
	if s.Count > 0 {
		s.MeanSeconds = s.TotalSeconds / float64(s.Count)
	}
	return s
}

// Count streams the plan and returns only the workunit count (Figure 4's
// headline numbers).
func (p *Plan) Count() int64 {
	var n int64
	p.ForEachCouple(func(rec, lig int, perIsep float64, nsep int) {
		n += int64(CoupleCount(p.DS.Proteins[rec].Nsep, nsep))
	})
	return n
}
