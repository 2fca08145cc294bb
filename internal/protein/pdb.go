package protein

import (
	"bufio"
	"fmt"
	"io"
)

// WritePDB writes the reduced protein model in PDB format, one HETATM
// record per pseudo-atom with the partial charge in the B-factor column and
// the van-der-Waals radius in the occupancy column. The output loads in any
// molecular viewer, which is how the screensaver-style inspection of
// Figure 5 is served in this reproduction.
func WritePDB(w io.Writer, p *Protein) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "HEADER    REDUCED MODEL %s\n", p.Name); err != nil {
		return fmt.Errorf("protein: writing PDB header: %w", err)
	}
	fmt.Fprintf(bw, "REMARK    NSEP %d RADIUS %.3f\n", p.Nsep, p.Radius())
	for i, b := range p.Beads() {
		// PDB fixed columns: serial, name, resName, chain, resSeq, x y z,
		// occupancy (radius), tempFactor (charge).
		fmt.Fprintf(bw, "HETATM%5d  CA  BEA A%4d    %8.3f%8.3f%8.3f%6.2f%6.2f\n",
			i+1, i+1, b.Pos.X, b.Pos.Y, b.Pos.Z, b.Radius, b.Charge)
	}
	fmt.Fprintln(bw, "END")
	return bw.Flush()
}
