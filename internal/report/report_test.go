package report

import (
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestFormatYDHMSPaperTotal(t *testing.T) {
	// The paper prints the formula-(1) total as 1,488:237:19:45:54.
	got := FormatYDHMS(46946115954)
	if got != "1,488:237:19:45:54" {
		t.Fatalf("got %q", got)
	}
}

func TestFormatYDHMSPhaseI(t *testing.T) {
	// §6: the consumed total is 8,082:275:17:15:44.
	got := FormatYDHMS(254897774144)
	if got != "8,082:275:17:15:44" {
		t.Fatalf("got %q", got)
	}
}

func TestFormatYDHMSSmall(t *testing.T) {
	if got := FormatYDHMS(0); got != "0:000:00:00:00" {
		t.Fatalf("zero: %q", got)
	}
	if got := FormatYDHMS(61); got != "0:000:00:01:01" {
		t.Fatalf("61s: %q", got)
	}
	if got := FormatYDHMS(-61); got != "-0:000:00:01:01" {
		t.Fatalf("negative: %q", got)
	}
}

func TestComma(t *testing.T) {
	cases := map[float64]string{
		0:        "0",
		999:      "999",
		1000:     "1,000",
		1364476:  "1,364,476",
		49481544: "49,481,544",
		-1234:    "-1,234",
	}
	for v, want := range cases {
		if got := Comma(v); got != want {
			t.Errorf("Comma(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestGroupThousandsMinInt64: the most negative int64, which a NaN float
// converts to on the way into Comma, renders instead of recursing until
// the stack overflows.
func TestGroupThousandsMinInt64(t *testing.T) {
	if got, want := groupThousands(math.MinInt64), "-9,223,372,036,854,775,808"; got != want {
		t.Fatalf("groupThousands(MinInt64) = %q, want %q", got, want)
	}
	if got := Comma(math.NaN()); got == "" {
		t.Fatal("Comma(NaN) rendered nothing")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Table 2", "Grid", "whole period", "full power")
	tb.AddRow("World Community Grid", "16,450", "26,248")
	tb.AddRow("Dedicated Grid", "3,029", "4,833")
	out := tb.String()
	if !strings.Contains(out, "Table 2") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "World Community Grid") || !strings.Contains(out, "4,833") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns aligned: header and rows share the position of column 2.
	hdr := lines[1]
	row := lines[3]
	if idx := strings.Index(hdr, "whole period"); idx < 0 || len(row) < idx {
		t.Fatalf("alignment broken:\n%s", out)
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "dropped")
	out := tb.String()
	if strings.Contains(out, "dropped") {
		t.Fatal("extra cell not dropped")
	}
	if !strings.Contains(out, "only-one") {
		t.Fatal("short row lost")
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	a := stats.NewSeries("alpha")
	a.Add(0, 1)
	a.Add(1, 2)
	b := stats.NewSeries("beta")
	b.Add(0, 10)
	var sb strings.Builder
	if err := WriteSeriesCSV(&sb, "week", a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "week,alpha,beta" {
		t.Fatalf("header: %q", lines[0])
	}
	if lines[1] != "0,1,10" {
		t.Fatalf("row 1: %q", lines[1])
	}
	if lines[2] != "1,2," {
		t.Fatalf("row 2 should pad short series: %q", lines[2])
	}
}

func TestWriteSeriesCSVEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteSeriesCSV(&sb, "x"); err == nil {
		t.Fatal("expected error for no series")
	}
}

func TestWriteHistogramCSV(t *testing.T) {
	h := stats.NewHistogram(0, 10, 2)
	h.Add(1)
	h.Add(6)
	h.Add(7)
	var sb strings.Builder
	if err := WriteHistogramCSV(&sb, h); err != nil {
		t.Fatal(err)
	}
	want := "bin_low,count\n0,1\n5,2\n"
	if sb.String() != want {
		t.Fatalf("got %q", sb.String())
	}
}
