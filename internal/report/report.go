// Package report renders tables, series and durations in the formats the
// paper uses: fixed-width ASCII tables for the numbered tables, CSV files
// for the figure series, and the y:d:h:m:s duration notation of §4.1
// ("1,488:237:19:45:54").
package report

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/stats"
)

// FormatYDHMS renders seconds in the paper's y:d:h:m:s notation with
// 365-day years (the convention under which the paper's own totals are
// self-consistent).
func FormatYDHMS(seconds float64) string {
	if seconds < 0 {
		return "-" + FormatYDHMS(-seconds)
	}
	s := int64(math.Round(seconds))
	const (
		minute = 60
		hour   = 60 * minute
		day    = 24 * hour
		year   = 365 * day
	)
	y := s / year
	s %= year
	d := s / day
	s %= day
	h := s / hour
	s %= hour
	m := s / minute
	s %= minute
	return fmt.Sprintf("%s:%03d:%02d:%02d:%02d", groupThousands(y), d, h, m, s)
}

// groupThousands renders n with comma separators.
func groupThousands(n int64) string {
	digits := fmt.Sprintf("%d", n)
	var b strings.Builder
	if n < 0 {
		// Split the sign off the digits instead of negating n: -MinInt64
		// overflows to MinInt64, which is what int64(NaN) converts to.
		b.WriteByte('-')
		digits = digits[1:]
	}
	lead := len(digits) % 3
	if lead > 0 {
		b.WriteString(digits[:lead])
		if len(digits) > lead {
			b.WriteByte(',')
		}
	}
	for i := lead; i < len(digits); i += 3 {
		b.WriteString(digits[i : i+3])
		if i+3 < len(digits) {
			b.WriteByte(',')
		}
	}
	return b.String()
}

// Comma renders a float with thousands separators and no decimals.
func Comma(v float64) string { return groupThousands(int64(math.Round(v))) }

// Table is a simple fixed-width ASCII table builder.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	bw := bufio.NewWriter(w)
	if t.Title != "" {
		fmt.Fprintf(bw, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(bw, "  ")
			}
			fmt.Fprintf(bw, "%-*s", widths[i], c)
		}
		fmt.Fprintln(bw)
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	return bw.Flush()
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return ""
	}
	return b.String()
}

// WriteSeriesCSV writes one or more series sharing an x axis as CSV with
// the given x-column name. Series of different lengths are padded with
// empty cells.
func WriteSeriesCSV(w io.Writer, xName string, series ...*stats.Series) error {
	if len(series) == 0 {
		return fmt.Errorf("report: no series to write")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, xName)
	for _, s := range series {
		fmt.Fprintf(bw, ",%s", s.Name)
	}
	fmt.Fprintln(bw)
	maxLen := 0
	for _, s := range series {
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	for i := 0; i < maxLen; i++ {
		wroteX := false
		for _, s := range series {
			if i < s.Len() {
				if !wroteX {
					fmt.Fprintf(bw, "%g", s.X[i])
					wroteX = true
				}
				break
			}
		}
		if !wroteX {
			fmt.Fprint(bw, "")
		}
		for _, s := range series {
			if i < s.Len() {
				fmt.Fprintf(bw, ",%g", s.Y[i])
			} else {
				fmt.Fprint(bw, ",")
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// WriteHistogramCSV writes a histogram as (bin_low, count) CSV rows.
func WriteHistogramCSV(w io.Writer, h *stats.Histogram) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "bin_low,count")
	for i, c := range h.Bins {
		fmt.Fprintf(bw, "%g,%d\n", h.BinLow(i), c)
	}
	return bw.Flush()
}
