package volunteer

import (
	"repro/internal/rng"
	"repro/internal/wcg"
)

// Mux is the host-side work-fetch multiplexer of a multi-project grid: the
// shared attachment table mapping project index → (server, resource share).
// It models what BOINC calls resource-share scheduling — every volunteer
// host splits its compute time across the projects it is attached to in
// proportion to their shares — except that here the arbitration lives in
// one place instead of in every agent's config file.
//
// The per-host arbitration state is stored the way the kernel stores the
// fleet (plane.go): dense columns indexed by host ID — each host's
// short-term debt vector is a window into one host × projects slab, and
// each host's seeded tie-break stream is one entry of a Source column.
// Attachment order is project identity — Attach stamps the server with its
// index, and every Assignment the server issues carries that index, which
// is how completions route back to the right project.
//
// Debt is the BOINC short-term-debt rule in reference seconds: when a fetch
// takes an assignment of w reference seconds from project c, every project
// currently offering work is credited its share of w (shares renormalized
// over the offering projects, so an idle tenant yields its slice instead of
// banking claim on the future), and c is debited the full w. Debts
// therefore always sum to zero per host, the next fetch goes to the
// highest-debt project with work, and ties break by the host's own seeded
// stream — deterministic, independent of other hosts.
//
// Determinism: attachments are fixed before the first host spawns; hosts
// draw only from their own tie-break streams. The whole layer is a pure
// function of (attachment table, host seeds, event order), so
// multi-project runs are as reproducible as single-project ones.
type Mux struct {
	atts []attachment

	debts []float64    // host ID × projects slab of short-term debts
	ties  []rng.Source // host ID: the host's tie-break stream
}

type attachment struct {
	server *wcg.Server
	weight float64 // configured (raw) share
	share  float64 // normalized: Σ share = 1
}

// NewMux returns an empty multiplexer; Attach the project servers before
// any host spawns.
func NewMux() *Mux { return &Mux{} }

// Attach registers a project server under the given resource share (any
// positive weight; shares are normalized to sum to 1 across attachments)
// and returns its project index. The server is stamped with the index so
// its assignments route back through the mux.
func (m *Mux) Attach(s *wcg.Server, share float64) int {
	if s == nil {
		panic("volunteer: Attach(nil server)")
	}
	if share <= 0 {
		panic("volunteer: resource share must be positive")
	}
	idx := len(m.atts)
	s.SetProject(idx)
	m.atts = append(m.atts, attachment{server: s, weight: share})
	var sum float64
	for i := range m.atts {
		sum += m.atts[i].weight
	}
	for i := range m.atts {
		m.atts[i].share = m.atts[i].weight / sum
	}
	return idx
}

// Reset drops all attachments and host columns so a pooled grid can
// re-attach its (freshly reset) servers for the next run. The backing
// arrays are retained.
func (m *Mux) Reset() {
	m.atts = m.atts[:0]
	m.debts = m.debts[:0]
	m.ties = m.ties[:0]
}

// arm (re)initializes host id's columns: debts zeroed, the tie-break stream
// seeded. Hosts spawn in ascending ID order, so the columns grow by
// amortized appends and arming allocates nothing once they have reached
// the fleet size.
func (m *Mux) arm(id int, seed uint64) {
	n := len(m.atts)
	for len(m.debts) < (id+1)*n {
		m.debts = append(m.debts, 0)
	}
	clear(m.debt(id))
	for len(m.ties) <= id {
		m.ties = append(m.ties, rng.Source{})
	}
	rng.NewInto(&m.ties[id], seed)
}

// debt returns host id's debt vector, a window into the dense slab.
func (m *Mux) debt(id int) []float64 {
	n := len(m.atts)
	return m.debts[id*n : (id+1)*n : (id+1)*n]
}

// Projects returns the number of attached project servers.
func (m *Mux) Projects() int { return len(m.atts) }

// Share returns project i's normalized resource share (Σ over projects = 1).
func (m *Mux) Share(i int) float64 { return m.atts[i].share }

// Debts returns a copy of host id's per-project short-term debts
// (diagnostics and invariant tests; the hot path never calls it).
func (m *Mux) Debts(id int) []float64 {
	return append([]float64(nil), m.debt(id)...)
}

// DebtSpread returns max−min of host id's per-project debts without
// allocating: the per-host arbitration imbalance the obs metrics registry
// samples (a fleet whose spreads stay near one workunit's reference
// seconds is arbitrating fairly).
func (m *Mux) DebtSpread(id int) float64 {
	debt := m.debt(id)
	if len(debt) == 0 {
		return 0
	}
	lo, hi := debt[0], debt[0]
	for _, d := range debt[1:] {
		lo = min(lo, d)
		hi = max(hi, d)
	}
	return hi - lo
}

// RequestWorkFor fetches one assignment for host id from the attached
// project the host owes the most time to, among those with work available.
// Returns nil when no attached project has work.
func (m *Mux) RequestWorkFor(id int) *wcg.Assignment {
	atts := m.atts
	debt := m.debt(id)
	best, ties := -1, 0
	var bestDebt float64
	for i := range atts {
		if !atts[i].server.HasWork() {
			continue
		}
		d := debt[i]
		switch {
		case best < 0 || d > bestDebt:
			best, bestDebt, ties = i, d, 1
		case d == bestDebt:
			// Seeded reservoir tie-break: each tied project wins with
			// equal probability, deterministically in the host's stream.
			ties++
			if m.ties[id].Uint64()%uint64(ties) == 0 {
				best = i
			}
		}
	}
	if best < 0 {
		return nil
	}
	a := atts[best].server.RequestWorkFor(id)
	if a == nil {
		return nil // HasWork raced a reentrant drain; treat as idle
	}
	// Short-term debt update over the projects that were offering work:
	// renormalize their shares, credit each its slice of the fetched
	// reference seconds, debit the chosen project in full. Zero-sum.
	w := a.WU.RefSeconds
	var offered float64
	for i := range atts {
		if i == best || atts[i].server.HasWork() {
			offered += atts[i].share
		}
	}
	for i := range atts {
		if i == best || atts[i].server.HasWork() {
			debt[i] += atts[i].share / offered * w
		}
	}
	debt[best] -= w
	return a
}

// CompleteFrom routes the finished assignment back to the project server
// that issued it.
func (m *Mux) CompleteFrom(a *wcg.Assignment, outcome wcg.Outcome, cpuSeconds float64, host int) {
	m.atts[a.Project()].server.CompleteFrom(a, outcome, cpuSeconds, host)
}

// Drop routes the given-up assignment back to the project server that
// issued it.
func (m *Mux) Drop(a *wcg.Assignment) {
	m.atts[a.Project()].server.Drop(a)
}

// DeadlineFor returns the assignment's class deadline on the server that
// issued it.
func (m *Mux) DeadlineFor(a *wcg.Assignment) float64 {
	return m.atts[a.Project()].server.DeadlineFor(a)
}
