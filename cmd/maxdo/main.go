// Command maxdo runs the docking kernel for one couple of the benchmark —
// the equivalent of one workunit execution, with the production checkpoint
// behaviour (§4.3): it can be interrupted (-stop-after) and resumed
// (-resume) from the checkpoint file, and writes the §5.2 result file.
//
// Usage:
//
//	maxdo -receptor 0 -ligand 1 -from 1 -to 10 [-nrot 21] [-o results.txt]
//	      [-checkpoint cp.json] [-stop-after N] [-resume]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/docking"
	"repro/internal/protein"
)

func main() {
	receptor := flag.Int("receptor", 0, "receptor protein index (0-based)")
	ligand := flag.Int("ligand", 1, "ligand protein index (0-based)")
	from := flag.Int("from", 1, "first starting position (1-based)")
	to := flag.Int("to", 10, "last starting position")
	nrot := flag.Int("nrot", protein.NRotWorkunit, "rotations per position (1-21)")
	out := flag.String("o", "", "result file (default stdout)")
	cpFile := flag.String("checkpoint", "", "checkpoint file path")
	stopAfter := flag.Int("stop-after", 0, "stop after N positions (simulates the volunteer killing the task)")
	resume := flag.Bool("resume", false, "resume from the checkpoint file")
	maxIter := flag.Int("iter", 0, "minimization iterations (0 = default)")
	dumpPDB := flag.String("dump-pdb", "", "write the receptor and ligand reduced models as PDB files with this prefix and exit")
	flag.Parse()

	if *nrot < 1 || *nrot > protein.NRotWorkunit {
		fail("-nrot must be in [1, %d]", protein.NRotWorkunit)
	}
	ds := protein.HCMD168()
	if *receptor < 0 || *receptor >= ds.Len() || *ligand < 0 || *ligand >= ds.Len() {
		fail("protein index out of range [0,%d)", ds.Len())
	}
	rec, lig := ds.Proteins[*receptor], ds.Proteins[*ligand]
	params := docking.MinimizeParams{MaxIter: *maxIter}

	if *dumpPDB != "" {
		for _, p := range []*protein.Protein{rec, lig} {
			path := fmt.Sprintf("%s_%s.pdb", *dumpPDB, p.Name)
			f, err := os.Create(path)
			if err != nil {
				fail("%v", err)
			}
			if err := protein.WritePDB(f, p); err != nil {
				f.Close()
				fail("%v", err)
			}
			if err := f.Close(); err != nil {
				fail("%v", err)
			}
			fmt.Fprintf(os.Stderr, "maxdo: wrote %s (%d beads)\n", path, p.NumBeads())
		}
		return
	}

	var task *docking.Task
	if *resume {
		if *cpFile == "" {
			fail("-resume needs -checkpoint")
		}
		data, err := os.ReadFile(*cpFile)
		if err != nil {
			fail("reading checkpoint: %v", err)
		}
		cp, err := docking.UnmarshalCheckpoint(data)
		if err != nil {
			fail("%v", err)
		}
		task, err = docking.Resume(cp, rec, lig, params)
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "maxdo: resumed at position %d/%d\n",
			int(cp.NextISep), cp.ISepHi)
	} else {
		if *from < 1 || *to > rec.Nsep || *from > *to {
			fail("position range [%d,%d] invalid for %s (Nsep=%d)", *from, *to, rec.Name, rec.Nsep)
		}
		task = docking.NewTask(rec, lig, *from, *to, *nrot, params)
	}

	for !task.Done() {
		task.Step()
		if *cpFile != "" {
			cp := task.Checkpoint()
			data, err := cp.Marshal()
			if err != nil {
				fail("%v", err)
			}
			if err := os.WriteFile(*cpFile, data, 0o644); err != nil {
				fail("writing checkpoint: %v", err)
			}
		}
		if *stopAfter > 0 && int(task.Progress()*float64(task.ISepHi-task.ISepLo+1)+0.5) >= *stopAfter {
			fmt.Fprintf(os.Stderr, "maxdo: stopped after %d positions (%.0f%% done); resume with -resume\n",
				*stopAfter, task.Progress()*100)
			return
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := docking.WriteResults(w, task.Results()); err != nil {
		fail("%v", err)
	}
	fmt.Fprintf(os.Stderr, "maxdo: %s vs %s, %d result lines\n", rec.Name, lig.Name, len(task.Results()))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "maxdo: "+format+"\n", args...)
	os.Exit(1)
}
