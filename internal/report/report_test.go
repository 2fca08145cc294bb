package report

import (
	"math"
	"strconv"
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

// TestFormatYDHMSPastInt64: seconds past 2^63 used to convert to an
// implementation-dependent int64 and print a negative year count.
func TestFormatYDHMSPastInt64(t *testing.T) {
	for v, want := range map[float64]string{
		1e20:         "3,170,979,198,376:167:09:46:40",
		-1e20:        "-3,170,979,198,376:167:09:46:40",
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
	} {
		if got := FormatYDHMS(v); got != want {
			t.Errorf("FormatYDHMS(%v) = %q, want %q", v, got, want)
		}
	}
	if got := FormatYDHMS(math.NaN()); got != "NaN" {
		t.Errorf("FormatYDHMS(NaN) = %q", got)
	}
}

// TestComma: values past 2^63 used to convert to an implementation-dependent
// int64 and print as -9,223,372,036,854,775,808, as NaN did.
func TestComma(t *testing.T) {
	cases := map[float64]string{
		0:            "0",
		-0.4:         "0",
		999:          "999",
		1000:         "1,000",
		1364476:      "1,364,476",
		49481544:     "49,481,544",
		-1234:        "-1,234",
		-1234567:     "-1,234,567",
		1 << 63:      "9,223,372,036,854,775,808",
		1e19:         "10,000,000,000,000,000,000",
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
	}
	for v, want := range cases {
		if got := Comma(v); got != want {
			t.Errorf("Comma(%v) = %q, want %q", v, got, want)
		}
	}
	if got := Comma(math.NaN()); got != "NaN" {
		t.Errorf("Comma(NaN) = %q, want NaN", got)
	}
	// ±1e300 print their 301 digits, which read back as the same float.
	for _, v := range []float64{1e300, -1e300} {
		got := Comma(v)
		groups := strings.Split(strings.TrimPrefix(got, "-"), ",")
		back, err := strconv.ParseFloat(strings.ReplaceAll(got, ",", ""), 64)
		if err != nil || back != v || len(groups) != 101 || groups[0] != "1" {
			t.Errorf("Comma(%v) = %q, want 1e300's 301 digits grouped by three", v, got)
		}
		for _, g := range groups[1:] {
			if len(g) != 3 {
				t.Errorf("Comma(%v) = %q: group %q", v, got, g)
			}
		}
	}
}

// TestGroupThousandsMinInt64: the sign is split off before grouping, so
// the most negative int64's digits group like any other.
func TestGroupThousandsMinInt64(t *testing.T) {
	if got, want := groupThousands(strconv.FormatInt(math.MinInt64, 10)), "-9,223,372,036,854,775,808"; got != want {
		t.Fatalf("groupThousands(MinInt64) = %q, want %q", got, want)
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
