package experiment

import (
	"sort"

	"repro/internal/project"
	"repro/internal/sim"
)

// prefixPlan is the fork-mode execution plan for one sweep selection: the
// DivergesAt > 0 scenarios grouped by divergence time, ascending. All of
// them share one trajectory per replication — the prefix of the base
// configuration — keyed by the root scenario's selection index, so the
// derived trajectory seed is the same whether the sweep forks or not.
type prefixPlan struct {
	root   int // selection index keying every grouped trajectory's seed
	groups []prefixGroup
}

// prefixGroup is one snapshot point of the plan: the divergence time and
// the selection indexes of the scenarios that fork there.
type prefixGroup struct {
	at    sim.Time
	scens []int
}

// planPrefix builds the prefix plan over a sweep's scenario selection.
// Returns nil when no scenario carries a DivergesAt hint — forking is a
// no-op for such sweeps.
func planPrefix(scenarios []Scenario) *prefixPlan {
	byTime := make(map[sim.Time][]int)
	root := -1
	for si, sc := range scenarios {
		if sc.DivergesAt <= 0 {
			continue
		}
		if root < 0 {
			root = si
		}
		byTime[sc.DivergesAt] = append(byTime[sc.DivergesAt], si)
	}
	if root < 0 {
		return nil
	}
	p := &prefixPlan{root: root}
	for at, scens := range byTime {
		p.groups = append(p.groups, prefixGroup{at: at, scens: scens})
	}
	sort.Slice(p.groups, func(a, b int) bool { return p.groups[a].at < p.groups[b].at })
	return p
}

// trees returns a tree job per replication over its pending grouped
// cells (cell index scenario*reps + rep), claiming them in pending, and
// skips a replication whose grouped cells all resumed. prefix gives a
// replication's shared-trajectory configuration.
func (p *prefixPlan) trees(reps int, pending []bool, prefix func(rep int) project.Config) []*job {
	var jobs []*job
	for r := 0; r < reps; r++ {
		j := &job{}
		for _, g := range p.groups {
			fg := forkGroup{at: g.at}
			for _, si := range g.scens {
				if i := si*reps + r; pending[i] {
					pending[i] = false
					fg.cells = append(fg.cells, i)
				}
			}
			if len(fg.cells) > 0 {
				j.groups = append(j.groups, fg)
			}
		}
		if len(j.groups) > 0 {
			cfg := prefix(r)
			j.tree = &cfg
			jobs = append(jobs, j)
		}
	}
	return jobs
}
