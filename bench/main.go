// Command bench is the repository's end-to-end benchmark: one process runs
// one workload, checks every op's outputs, and prints every metric by name
// with its unit as the last line of standard output. README.md lists the
// workloads, the metrics and how to compare two commits.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload replay --seed 0 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// runs the traced pass instead, prints the per-layer metrics and writes its
// spans as NDJSON to --spans.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricValue and result are the output line's schema.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 0, "input seed; 0 runs the repository's default configuration, whose digests are pinned")
	secs := flag.Int("seconds", 15, "measuring time of an untraced run, in seconds")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced pass, per-layer metrics")
	spans := flag.String("spans", ".bench_build/spans.ndjson", "file the traced pass writes its spans to")
	summarize := flag.Bool("summarize", false, "print the median and quartiles of every metric in the result lines of the files named as arguments")
	flag.Parse()

	if *summarize {
		if err := summarizeFiles(flag.Args()); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *secs < 1 {
		fatalf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	w, err := newWorkload(*name, fullSizes, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	pinned := ""
	if *seed == 0 {
		pinned = pinnedDigests[w.name]
	}

	probe, err := startProbe()
	if err != nil {
		fatalf("memory probe: %v", err)
	}
	var res result
	if *trace == 0 {
		res = runUntraced(w, probe, float64(*secs), digestCheck(pinned))
	} else {
		p := runTraced(w, probe, digestCheck(pinned))
		if err := writeSpans(*spans, p.tr); err != nil {
			fatalf("writing spans: %v", err)
		}
		res = output(perLayer, p.m, p.attempted, p.failed)
	}
	if err := probe.close(); err != nil {
		fatalf("memory probe: %v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

// runUntraced measures ops back to back, each starting when the previous
// one ends. It runs as many ops as fill the measuring time at the op's
// nominal wall time, at least one: a count fixed by the arguments, so that
// runs on a faster or slower machine median over the same ops. Every time
// is rescaled to nominal memory speed (see probe.go).
func runUntraced(w *workload, probe *memProbe, seconds float64, check func(string) error) result {
	setupS, sys := setups(w, nil, probe)
	ops := max(1, int(math.Round(seconds/w.nominalOpS)))
	var opS, heapMB []float64
	failed := 0
	for len(opS) < ops {
		runtime.GC()
		closeWindow := probe.window()
		t0 := time.Now()
		res, err := safe(func() (opResult, error) { return w.op(sys, nil) })
		wall := time.Since(t0).Seconds()
		f := closeWindow()
		logf("%s: op %d: %.4f s wall, memory-speed factor %.3f", w.name, len(opS)+1, wall, f)
		opS = append(opS, wall*f)
		if err == nil {
			if len(opS) == 1 {
				logf("%s: digest %s", w.name, res.digest)
			}
			err = check(res.digest)
		}
		if err != nil {
			failed++
			logf("%s: op %d: %v", w.name, len(opS), err)
		} else {
			heapMB = append(heapMB, float64(heapLiveBytes())/1e6)
		}
		runtime.KeepAlive(res.keep)
		res = opResult{}
	}
	m := map[string]float64{
		"op_s":         median(opS),
		"setup_s":      median(setupS),
		"heap_live_mb": median(heapMB),
	}
	return output(endToEnd, m, len(opS), failed)
}

// digestCheck returns the per-op digest check: every op of a run must
// produce the same digest, and on the default seed the pinned one.
func digestCheck(pinned string) func(string) error {
	first := ""
	return func(d string) error {
		if pinned != "" && d != pinned {
			return fmt.Errorf("digest %s differs from the pinned %s", d, pinned)
		}
		if first == "" {
			first = d
		} else if d != first {
			return fmt.Errorf("digest %s differs from this run's first op %s", d, first)
		}
		return nil
	}
}

func output(defs []metricDef, m map[string]float64, attempted, failed int) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			logf("%s is %v; reported as 0", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}

func writeSpans(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.writeNDJSON(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summarizeFiles prints, per file, every metric's sample count, median,
// quartiles and quartile spread over the result lines the file holds.
func summarizeFiles(paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("--summarize needs result files")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		values := make(map[string][]float64)
		var names []string
		runs, failed := 0, 0
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "{") {
				continue
			}
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			runs++
			failed += r.Failed
			for k, v := range r.Metrics {
				if _, seen := values[k]; !seen {
					names = append(names, k)
				}
				values[k] = append(values[k], v.Value)
			}
		}
		sort.Strings(names)
		fmt.Printf("%s: %d runs, %d failed ops\n", path, runs, failed)
		for _, k := range names {
			xs := values[k]
			if len(xs) < 2 {
				fmt.Printf("  %-30s n=%d value=%.6g\n", k, len(xs), xs[0])
				continue
			}
			q1, q3 := quartiles(xs)
			fmt.Printf("  %-30s n=%d median=%.6g q1=%.6g q3=%.6g spread=%.4f\n", k, len(xs), median(xs), q1, q3, spread(xs))
		}
	}
	return nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(2)
}
