package validate

import (
	"testing"

	"repro/internal/protein"
)

func TestEstimateArchivePaperScale(t *testing.T) {
	ds := protein.HCMD168()
	lines, text, compressed := EstimateArchive(ds)
	// 49,481,544 instances × 21 rotations ≈ 1.04e9 lines.
	if lines != int64(49481544)*21 {
		t.Fatalf("lines = %d", lines)
	}
	// Paper: 123 GB of text, 45 GB compressed. Accept a generous band —
	// the exact size depends on the authors' column formats.
	gb := float64(text) / 1e9
	if gb < 60 || gb > 220 {
		t.Fatalf("estimated archive %.0f GB, want ≈ 123 GB", gb)
	}
	cgb := float64(compressed) / 1e9
	if cgb/gb < 0.3 || cgb/gb > 0.4 {
		t.Fatalf("compression ratio %.2f, want 45/123", cgb/gb)
	}
}
