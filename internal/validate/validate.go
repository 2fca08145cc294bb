// Package validate estimates the size of the campaign's result archive
// (§5.2).
//
// During the project the World Community Grid team shipped results to a
// storage server in France whenever one protein had been docked against all
// 168 others. The team there checked each delivery (the number of files, the
// number of lines in each file, values within a valid range; see
// docking.ValidRange) and merged the per-workunit result files into one file
// per couple of proteins: 168² merged files totalling 123 GB of text
// (≈ 45 GB compressed).
package validate

import (
	"bytes"

	"repro/internal/docking"
	"repro/internal/protein"
)

// CompressionRatio is the text-to-compressed size ratio the paper reports
// (45 GB / 123 GB).
const CompressionRatio = 45.0 / 123.0

// sampleLine is a representative result line used to estimate the archive
// size without materializing it.
var sampleLine = func() int {
	var buf bytes.Buffer
	r := docking.Result{
		ISep: 1234, IRot: 12,
		Pose:   docking.Pose{Pos: docking.Vec3{X: -12.3456, Y: 45.6789, Z: -7.8901}, Alpha: 1.234567, Beta: 2.345678, Gamma: 3.456789},
		Energy: docking.Energy{LJ: -123.456789, Elec: 45.678901},
	}
	if err := docking.WriteResults(&buf, []docking.Result{r}); err != nil {
		panic(err)
	}
	return buf.Len()
}()

// EstimateArchive predicts the full-campaign archive size from the dataset
// alone: one line per (couple, isep, irot), each as long as sampleLine. For
// the HCMD benchmark that is 1,039,112,424 lines, 85.21 GB of text and
// 31.17 GB compressed: 31 % below the paper's 123 GB and 45 GB. ROADMAP
// item 1 asks whether the line count or the line's length is off.
func EstimateArchive(ds *protein.Dataset) (lines int64, textBytes int64, compressedBytes int64) {
	lines = int64(ds.Instances()) * int64(protein.NRotWorkunit)
	textBytes = lines * int64(sampleLine)
	compressedBytes = int64(float64(textBytes) * CompressionRatio)
	return lines, textBytes, compressedBytes
}
