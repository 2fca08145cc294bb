package protein

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestPDBRoundTrip(t *testing.T) {
	ds := Generate(3, 42)
	for _, p := range ds.Proteins {
		var buf bytes.Buffer
		if err := WritePDB(&buf, p); err != nil {
			t.Fatal(err)
		}
		got, err := parsePDB(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != p.Name {
			t.Fatalf("name %q, want %q", got.Name, p.Name)
		}
		if got.Nsep != p.Nsep {
			t.Fatalf("nsep %d, want %d", got.Nsep, p.Nsep)
		}
		if len(got.Beads) != p.NumBeads() {
			t.Fatalf("beads %d, want %d", len(got.Beads), p.NumBeads())
		}
		if math.Abs(got.Radius-p.Radius()) > 5e-4 {
			t.Fatalf("radius %v, want %v", got.Radius, p.Radius())
		}
		want := p.Beads()
		for i := range got.Beads {
			// PDB columns carry 3 decimals for coordinates, 2 for the rest.
			if math.Abs(got.Beads[i].Pos.X-want[i].Pos.X) > 5e-4 {
				t.Fatalf("bead %d x: %v vs %v", i, got.Beads[i].Pos.X, want[i].Pos.X)
			}
			if math.Abs(got.Beads[i].Charge-want[i].Charge) > 5e-3 {
				t.Fatalf("bead %d charge: %v vs %v", i, got.Beads[i].Charge, want[i].Charge)
			}
			if math.Abs(got.Beads[i].Radius-want[i].Radius) > 5e-3 {
				t.Fatalf("bead %d radius: %v vs %v", i, got.Beads[i].Radius, want[i].Radius)
			}
		}
	}
}

func TestPDBFormatColumns(t *testing.T) {
	p := Generate(1, 7).Proteins[0]
	var buf bytes.Buffer
	if err := WritePDB(&buf, p); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	if !strings.HasPrefix(lines[0], "HEADER") {
		t.Fatal("missing HEADER")
	}
	sawAtom := false
	for _, l := range lines {
		if strings.HasPrefix(l, "HETATM") {
			sawAtom = true
			if len(l) != 66 {
				t.Fatalf("HETATM record has %d columns: %q", len(l), l)
			}
		}
	}
	if !sawAtom {
		t.Fatal("no HETATM records")
	}
	if lines[len(lines)-2] != "END" {
		t.Fatalf("missing END record: %q", lines[len(lines)-2])
	}
}

func TestParsePDBErrors(t *testing.T) {
	cases := []string{
		"",
		"HETATM short\n",
		"REMARK    NSEP notanumber\n",
		"HEADER    X\nEND\n",
	}
	for i, c := range cases {
		if _, err := parsePDB(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// parsedPDB is what parsePDB recovers of a protein.
type parsedPDB struct {
	Name   string
	Nsep   int
	Radius float64
	Beads  []Bead
}

// parsePDB reads a protein written by WritePDB back, the oracle of the
// round-trip test. Only the fields WritePDB emits are recovered; the name
// comes from the HEADER record.
func parsePDB(r io.Reader) (*parsedPDB, error) {
	sc := bufio.NewScanner(r)
	p := &parsedPDB{}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "HEADER"):
			fields := strings.Fields(line)
			if len(fields) >= 4 {
				p.Name = fields[len(fields)-1]
			}
		case strings.HasPrefix(line, "REMARK"):
			fields := strings.Fields(line)
			for i := 0; i+1 < len(fields); i++ {
				switch fields[i] {
				case "NSEP":
					v, err := strconv.Atoi(fields[i+1])
					if err != nil {
						return nil, fmt.Errorf("protein: bad NSEP remark: %w", err)
					}
					p.Nsep = v
				case "RADIUS":
					v, err := strconv.ParseFloat(fields[i+1], 64)
					if err != nil {
						return nil, fmt.Errorf("protein: bad RADIUS remark: %w", err)
					}
					p.Radius = v
				}
			}
		case strings.HasPrefix(line, "HETATM"):
			if len(line) < 66 {
				return nil, fmt.Errorf("protein: short HETATM record %q", line)
			}
			parse := func(lo, hi int) (float64, error) {
				return strconv.ParseFloat(strings.TrimSpace(line[lo:hi]), 64)
			}
			x, err := parse(30, 38)
			if err != nil {
				return nil, fmt.Errorf("protein: HETATM x: %w", err)
			}
			y, err := parse(38, 46)
			if err != nil {
				return nil, fmt.Errorf("protein: HETATM y: %w", err)
			}
			z, err := parse(46, 54)
			if err != nil {
				return nil, fmt.Errorf("protein: HETATM z: %w", err)
			}
			occ, err := parse(54, 60)
			if err != nil {
				return nil, fmt.Errorf("protein: HETATM occupancy: %w", err)
			}
			bf, err := parse(60, 66)
			if err != nil {
				return nil, fmt.Errorf("protein: HETATM b-factor: %w", err)
			}
			p.Beads = append(p.Beads, Bead{Pos: Vec3{X: x, Y: y, Z: z}, Radius: occ, Charge: bf})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("protein: reading PDB: %w", err)
	}
	if len(p.Beads) == 0 {
		return nil, fmt.Errorf("protein: no HETATM records found")
	}
	return p, nil
}
