// Command obscat validates and summarizes the observability plane's NDJSON
// outputs (sweep/hcmdsim -metrics and -trace files). Every non-blank line
// must parse as a standalone JSON object (null, an array or a bare value is
// malformed); obscat reports how many did, broken down by metric series or
// trace event, and exits 1 on the first malformed line, naming file:line —
// the CI gate that instrumented runs emit well-formed telemetry.
//
// Usage:
//
//	obscat [-min-series N] [-min-events N] [-q] FILE...
//
// Examples:
//
//	obscat metrics.ndjson trace.ndjson          # validate + summarize both
//	obscat -min-series 10 metrics.ndjson        # gate: ≥ 10 distinct series
//	obscat -min-events 1 trace.ndjson           # gate: at least one event
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	minSeries := flag.Int("min-series", 0, "fail unless at least this many distinct metric series appear across all files")
	minEvents := flag.Int("min-events", 0, "fail unless at least this many distinct trace events appear across all files")
	quiet := flag.Bool("q", false, "suppress the per-name breakdown, print totals only")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "obscat: no files given")
		os.Exit(2)
	}

	series := map[string]int{}
	events := map[string]int{}
	totalLines := 0
	for _, path := range flag.Args() {
		n, err := scan(path, series, events)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obscat: %v\n", err)
			os.Exit(1)
		}
		totalLines += n
	}

	if !*quiet {
		breakdown("series", series)
		breakdown("event", events)
	}
	fmt.Printf("obscat: %d lines ok across %d files, %d series, %d events\n",
		totalLines, flag.NArg(), len(series), len(events))

	if len(series) < *minSeries {
		fmt.Fprintf(os.Stderr, "obscat: %d distinct series < required %d\n", len(series), *minSeries)
		os.Exit(1)
	}
	if len(events) < *minEvents {
		fmt.Fprintf(os.Stderr, "obscat: %d distinct events < required %d\n", len(events), *minEvents)
		os.Exit(1)
	}
}

// scan parses one NDJSON file line by line, tallying "series" and "event"
// names. It fails on the first line that is not a JSON object.
func scan(path string, series, events map[string]int) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo, n := 0, 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			return n, fmt.Errorf("%s:%d: %v", path, lineNo, err)
		}
		if obj == nil { // the one non-object Unmarshal accepts into a map
			return n, fmt.Errorf("%s:%d: null is not a JSON object", path, lineNo)
		}
		if s, ok := obj["series"].(string); ok {
			series[s]++
		}
		if e, ok := obj["event"].(string); ok {
			events[e]++
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("%s: %v", path, err)
	}
	return n, nil
}

func breakdown(label string, counts map[string]int) {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-8s %-24s %d\n", label, name, counts[name])
	}
}
