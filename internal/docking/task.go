package docking

import (
	"encoding/json"
	"fmt"

	"repro/internal/protein"
)

// Task is a resumable docking computation over a contiguous range of
// starting positions, the exact unit shipped to a volunteer device.
//
// The production MAXDo port checkpoints only between starting positions
// (§4.3): if the volunteer kills the process mid-position, work on that
// position is lost and restarts from the last completed one. Task models
// that contract: Checkpoint captures completed positions only, and Resume
// restarts from the first incomplete position.
type Task struct {
	Receptor, Ligand *protein.Protein
	ISepLo, ISepHi   int // inclusive, 1-based
	NRot             int
	Params           MinimizeParams

	nextISep int // first position not yet completed
	results  []Result
}

// NewTask creates a task covering starting positions [lo, hi].
func NewTask(receptor, ligand *protein.Protein, lo, hi, nrot int, params MinimizeParams) *Task {
	if lo < 1 || hi > receptor.Nsep || lo > hi {
		panic(fmt.Sprintf("docking: task range [%d,%d] invalid for Nsep=%d", lo, hi, receptor.Nsep))
	}
	return &Task{
		Receptor: receptor, Ligand: ligand,
		ISepLo: lo, ISepHi: hi, NRot: nrot,
		Params:   params,
		nextISep: lo,
	}
}

// Done reports whether every starting position has been computed.
func (t *Task) Done() bool { return t.nextISep > t.ISepHi }

// Progress returns the fraction of starting positions completed, in [0, 1].
func (t *Task) Progress() float64 {
	total := t.ISepHi - t.ISepLo + 1
	return float64(t.nextISep-t.ISepLo) / float64(total)
}

// Step computes one starting position (all rotations) and advances the
// checkpoint frontier. It returns false if the task was already done.
func (t *Task) Step() bool {
	if t.Done() {
		return false
	}
	for irot := 1; irot <= t.NRot; irot++ {
		t.results = append(t.results, Dock(t.Receptor, t.Ligand, t.nextISep, irot, t.Params))
	}
	t.nextISep++
	return true
}

// RunN executes up to n starting positions and reports how many were done.
func (t *Task) RunN(n int) int {
	done := 0
	for done < n && t.Step() {
		done++
	}
	return done
}

// Run executes the task to completion and returns all results.
func (t *Task) Run() []Result {
	for t.Step() {
	}
	return t.Results()
}

// Results returns the results computed so far, in (isep, irot) order.
func (t *Task) Results() []Result { return t.results }

// Checkpoint is the serializable resume state of a Task.
type Checkpoint struct {
	ReceptorID int      `json:"receptor"`
	LigandID   int      `json:"ligand"`
	ISepLo     int      `json:"isep_lo"`
	ISepHi     int      `json:"isep_hi"`
	NRot       int      `json:"nrot"`
	NextISep   int      `json:"next_isep"`
	Results    []Result `json:"results"`
}

// Checkpoint captures the current resume state (completed positions only).
func (t *Task) Checkpoint() Checkpoint {
	res := make([]Result, len(t.results))
	copy(res, t.results)
	return Checkpoint{
		ReceptorID: t.Receptor.ID,
		LigandID:   t.Ligand.ID,
		ISepLo:     t.ISepLo,
		ISepHi:     t.ISepHi,
		NRot:       t.NRot,
		NextISep:   t.nextISep,
		Results:    res,
	}
}

// Marshal encodes the checkpoint as JSON.
func (c Checkpoint) Marshal() ([]byte, error) { return json.Marshal(c) }

// UnmarshalCheckpoint decodes a checkpoint produced by Marshal.
func UnmarshalCheckpoint(data []byte) (Checkpoint, error) {
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return Checkpoint{}, fmt.Errorf("docking: invalid checkpoint: %w", err)
	}
	return c, nil
}

// Resume reconstructs a task from a checkpoint. The caller supplies the
// protein objects (the checkpoint stores only their IDs, like the workunit
// input files on the grid).
func Resume(c Checkpoint, receptor, ligand *protein.Protein, params MinimizeParams) (*Task, error) {
	if receptor.ID != c.ReceptorID || ligand.ID != c.LigandID {
		return nil, fmt.Errorf("docking: checkpoint is for couple (%d,%d), got (%d,%d)",
			c.ReceptorID, c.LigandID, receptor.ID, ligand.ID)
	}
	if c.NextISep < c.ISepLo || c.NextISep > c.ISepHi+1 {
		return nil, fmt.Errorf("docking: checkpoint frontier %d outside [%d,%d+1]", c.NextISep, c.ISepLo, c.ISepHi)
	}
	t := NewTask(receptor, ligand, c.ISepLo, c.ISepHi, c.NRot, params)
	t.nextISep = c.NextISep
	t.results = append(t.results, c.Results...)
	return t, nil
}
