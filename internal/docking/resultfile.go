package docking

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Result file format (§5.2): "a simple text file that contains on each line
// the coordinates of the ligand and its orientation, and then the
// interaction energy values". One line per (isep, irot):
//
//	isep irot x y z alpha beta gamma Elj Eelec
//
// The validation pipeline checks result files with three controls (§5.2):
// correct number of files, correct number of lines, and values within a
// valid range. Those checks live here too, next to the format they verify.

// WriteResults writes results in the MAXDo text format.
func WriteResults(w io.Writer, results []Result) error {
	bw := bufio.NewWriter(w)
	for _, r := range results {
		_, err := fmt.Fprintf(bw, "%d %d %.4f %.4f %.4f %.6f %.6f %.6f %.6f %.6f\n",
			r.ISep, r.IRot,
			r.Pose.Pos.X, r.Pose.Pos.Y, r.Pose.Pos.Z,
			r.Pose.Alpha, r.Pose.Beta, r.Pose.Gamma,
			r.Energy.LJ, r.Energy.Elec)
		if err != nil {
			return fmt.Errorf("docking: writing result line: %w", err)
		}
	}
	return bw.Flush()
}

// ParseResults reads a MAXDo result file.
func ParseResults(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 10 {
			return nil, fmt.Errorf("docking: line %d has %d fields, want 10", lineNo, len(fields))
		}
		var res Result
		var err error
		if res.ISep, err = strconv.Atoi(fields[0]); err != nil {
			return nil, fmt.Errorf("docking: line %d isep: %w", lineNo, err)
		}
		if res.IRot, err = strconv.Atoi(fields[1]); err != nil {
			return nil, fmt.Errorf("docking: line %d irot: %w", lineNo, err)
		}
		vals := make([]float64, 8)
		for i := 0; i < 8; i++ {
			if vals[i], err = strconv.ParseFloat(fields[2+i], 64); err != nil {
				return nil, fmt.Errorf("docking: line %d field %d: %w", lineNo, 3+i, err)
			}
		}
		res.Pose.Pos = Vec3{X: vals[0], Y: vals[1], Z: vals[2]}
		res.Pose.Alpha, res.Pose.Beta, res.Pose.Gamma = vals[3], vals[4], vals[5]
		res.Energy.LJ, res.Energy.Elec = vals[6], vals[7]
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("docking: reading results: %w", err)
	}
	return out, nil
}

// ValidRange bounds the plausible values of a result line; results outside
// it are rejected by the §5.2 range check. The bounds are generous: they
// exist to catch corrupted or fabricated results, not marginal science.
type ValidRange struct {
	MaxAbsCoord  float64 // |x|,|y|,|z| bound, Å
	MaxAbsEnergy float64 // |Elj|,|Eelec| bound, kcal/mol
}

// DefaultValidRange is the production validation envelope.
var DefaultValidRange = ValidRange{MaxAbsCoord: 500, MaxAbsEnergy: 1e6}

// CheckLine validates one result against the range check.
func (v ValidRange) CheckLine(r Result) error {
	if r.ISep < 1 || r.IRot < 1 {
		return fmt.Errorf("docking: non-positive indices (%d, %d)", r.ISep, r.IRot)
	}
	for _, c := range []float64{r.Pose.Pos.X, r.Pose.Pos.Y, r.Pose.Pos.Z} {
		if c != c || c < -v.MaxAbsCoord || c > v.MaxAbsCoord {
			return fmt.Errorf("docking: coordinate %v out of range ±%v", c, v.MaxAbsCoord)
		}
	}
	for _, e := range []float64{r.Energy.LJ, r.Energy.Elec} {
		if e != e || e < -v.MaxAbsEnergy || e > v.MaxAbsEnergy {
			return fmt.Errorf("docking: energy %v out of range ±%v", e, v.MaxAbsEnergy)
		}
	}
	return nil
}

// CheckResults applies the §5.2 validation to a parsed result set:
// the expected line count and the per-line range check.
func (v ValidRange) CheckResults(results []Result, wantLines int) error {
	if len(results) != wantLines {
		return fmt.Errorf("docking: %d result lines, want %d", len(results), wantLines)
	}
	for i, r := range results {
		if err := v.CheckLine(r); err != nil {
			return fmt.Errorf("line %d: %w", i+1, err)
		}
	}
	return nil
}
