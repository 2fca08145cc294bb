package vftp

import (
	"math"
	"testing"
)

func TestFromCPUPaperExample(t *testing.T) {
	// §3.1: 10 years of CPU time in one day ⇒ at least 3,650 processors.
	tenYears := 10 * 365.0 * SecondsPerDay
	got := FromCPU(tenYears, SecondsPerDay)
	if got != 3650 {
		t.Fatalf("VFTP = %v, want 3650", got)
	}
}

func TestFromCPUWeekWritten(t *testing.T) {
	// §6: "during the prior week, WCG received 1,435 years of run time or
	// an average of 74,825 days of run time per day" ⇒ 74,825 VFTP.
	cpu := 1435 * 365.25 * SecondsPerDay
	got := FromCPU(cpu, 7*SecondsPerDay)
	if math.Abs(got-74875) > 1000 { // paper rounds with 365-day years
		t.Fatalf("VFTP = %v, want ≈ 74,825", got)
	}
	// With 365-day years the match is closer.
	got = FromCPU(1435*365*SecondsPerDay, 7*SecondsPerDay)
	if math.Abs(got-74825) > 1 {
		t.Fatalf("VFTP (365-day years) = %v, want 74,825", got)
	}
}

func TestFromCPUPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromCPU(1, 0)
}

func TestDedicatedEquivalentTable2(t *testing.T) {
	// Table 2: 16,450 VFTP / 5.43 = 3,029 dedicated processors;
	// 26,248 / 5.43 = 4,833.
	if got := DedicatedEquivalent(16450, PaperTotalFactor); math.Abs(got-3029) > 1 {
		t.Fatalf("whole period = %v, want ≈ 3029", got)
	}
	if got := DedicatedEquivalent(26248, PaperTotalFactor); math.Abs(got-4833) > 1 {
		t.Fatalf("full power = %v, want ≈ 4833", got)
	}
}

func TestDedicatedEquivalentWeekWritten(t *testing.T) {
	// §6: 74,825 VFTP / 3.96 ⇒ ≈ 18,895 Opteron processors.
	got := DedicatedEquivalent(74825, PaperSpeedDown)
	if math.Abs(got-18895) > 1 {
		t.Fatalf("equivalent = %v, want ≈ 18,895", got)
	}
}

func TestDedicatedEquivalentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DedicatedEquivalent(1, 0)
}

func TestPaperFactorsConsistent(t *testing.T) {
	// 5.43 = 3.96 × 1.37 (within rounding).
	if math.Abs(PaperSpeedDown*PaperRedundancy-PaperTotalFactor) > 0.01 {
		t.Fatalf("3.96 × 1.37 = %v ≠ 5.43", PaperSpeedDown*PaperRedundancy)
	}
}

func TestPaperTable2(t *testing.T) {
	rows := PaperTable2()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if math.Abs(rows[0].Dedicated-3029) > 1 || math.Abs(rows[1].Dedicated-4833) > 1 {
		t.Fatalf("Table 2 = %+v", rows)
	}
	if rows[0].String() == "" || rows[1].String() == "" {
		t.Fatal("empty row render")
	}
}
