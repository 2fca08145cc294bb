package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"

	"repro/internal/stats"
)

// parseLines decodes every NDJSON line, failing on the first malformed one.
func parseLines(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	for i, line := range bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		out = append(out, obj)
	}
	return out
}

func TestTraceEmitShape(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(NewSink(&buf), Str("scenario", "baseline"), Int("rep", 2))
	tr.Emit(week, "phase", Str("phase", "ramp"), Num("share", 0.35))
	tr.Emit(2*week, "quorum-switch", Int("from", 2), Int("to", 1))

	lines := parseLines(t, buf.Bytes())
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	first := lines[0]
	if first["t"] != float64(week) || first["week"] != 1.0 {
		t.Errorf("timestamps: t=%v week=%v, want %d and 1", first["t"], first["week"], week)
	}
	for key, want := range map[string]any{
		"event": "phase", "scenario": "baseline", "rep": 2.0, "phase": "ramp", "share": 0.35,
	} {
		if first[key] != want {
			t.Errorf("field %q = %v, want %v", key, first[key], want)
		}
	}
	if lines[1]["event"] != "quorum-switch" {
		t.Errorf("second event = %v", lines[1]["event"])
	}
}

func TestTraceSetTagsRearms(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(NewSink(&buf), Str("scenario", "a"))
	tr.Emit(0, "run-start")
	tr.SetTags(Str("scenario", "b"), Int("rep", 1))
	tr.Emit(0, "run-start")

	lines := parseLines(t, buf.Bytes())
	if lines[0]["scenario"] != "a" || lines[1]["scenario"] != "b" || lines[1]["rep"] != 1.0 {
		t.Errorf("retagging failed: %v then %v", lines[0], lines[1])
	}
}

func TestTraceEscapingAndSpecials(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(NewSink(&buf))
	tr.Emit(0, `odd "name"`+"\n\tend",
		Str("path", `C:\tmp`), Num("nan", math.NaN()), Num("inf", math.Inf(1)),
		Str("ctl", "a\x01b"))
	lines := parseLines(t, buf.Bytes())
	l := lines[0]
	if l["event"] != "odd \"name\"\n\tend" || l["path"] != `C:\tmp` || l["ctl"] != "a\x01b" {
		t.Errorf("escaping round-trip failed: %v", l)
	}
	if l["nan"] != nil || l["inf"] != nil {
		t.Errorf("NaN/Inf must encode as null, got %v / %v", l["nan"], l["inf"])
	}
}

func TestNilTraceAndProbeAreNoops(t *testing.T) {
	var tr *Trace
	tr.Emit(0, "ignored") // must not panic
	var p *Probe
	p.Emit(0, "ignored", Num("x", 1)) // must not panic
	if (&Probe{}).Cadence() != DefaultSampleEvery {
		t.Errorf("zero probe cadence = %v, want default %v", (&Probe{}).Cadence(), DefaultSampleEvery)
	}
	if (&Probe{SampleEvery: 7}).Cadence() != 7 {
		t.Error("explicit cadence ignored")
	}
}

func TestCheckSampleEvery(t *testing.T) {
	for _, s := range []float64{0, MinSampleEvery, 7, DefaultSampleEvery, math.MaxFloat64} {
		if err := CheckSampleEvery(s); err != nil {
			t.Errorf("CheckSampleEvery(%v) = %v, want accepted", s, err)
		}
	}
	for _, s := range []float64{1e-9, 0.5, -1, math.Inf(1), math.Inf(-1), math.NaN()} {
		if err := CheckSampleEvery(s); err == nil {
			t.Errorf("CheckSampleEvery(%v) accepted a cadence that must be rejected", s)
		}
	}
}

func TestLine(t *testing.T) {
	b := Line(Str("event", "sweep-telemetry"), Int("done", 3), Num("eta-s", 1.5))
	var obj map[string]any
	if err := json.Unmarshal(b, &obj); err != nil {
		t.Fatalf("Line output is not JSON: %v\n%s", err, b)
	}
	if obj["event"] != "sweep-telemetry" || obj["done"] != 3.0 || obj["eta-s"] != 1.5 {
		t.Errorf("Line fields wrong: %v", obj)
	}
}

func TestSinkStickyError(t *testing.T) {
	w := &failAfter{n: 2}
	s := NewSink(w)
	s.WriteLine([]byte(`{"a":1}`))
	s.WriteLine([]byte(`{"a":2}`))
	s.WriteLine([]byte(`{"a":3}`)) // fails
	s.WriteLine([]byte(`{"a":4}`)) // dropped silently
	if s.Lines() != 2 {
		t.Errorf("lines = %d, want 2", s.Lines())
	}
	if s.Err() == nil {
		t.Error("sticky error lost")
	}
	if w.writes != 3 {
		t.Errorf("writer saw %d writes, want 3: a line after the error reached it", w.writes)
	}

	// A metric export whose second block fails: the first block's lines
	// count, the failing block's do not, and no later block is written.
	r := blocksRegistry(0)
	w = &failAfter{n: 1}
	s = NewSink(w)
	r.WriteNDJSON(s, Str("scenario", "x"))
	if s.Err() == nil {
		t.Fatal("failed block left no sticky error")
	}
	if want := int64(bytes.Count(w.ok, []byte("\n"))); s.Lines() != want || want == 0 {
		t.Errorf("lines = %d, want the first block's %d", s.Lines(), want)
	}
	s.WriteLine([]byte(`{"a":5}`))
	if w.writes != 2 {
		t.Errorf("writer saw %d writes, want 2: blocks after the failed one reached it", w.writes)
	}
}

// failAfter accepts its first n writes, keeping their bytes, and fails
// every later one.
type failAfter struct {
	n, writes int
	ok        []byte
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, errors.New("disk full")
	}
	f.ok = append(f.ok, p...)
	return len(p), nil
}

func TestSinkConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := NewTrace(s, Int("worker", int64(w)))
			for i := 0; i < 50; i++ {
				tr.Emit(float64(i), "tick", Int("i", int64(i)))
			}
		}(w)
	}
	wg.Wait()
	lines := parseLines(t, buf.Bytes())
	if len(lines) != 400 || s.Lines() != 400 {
		t.Fatalf("got %d parsed / %d counted lines, want 400", len(lines), s.Lines())
	}
}

func TestRegistrySampling(t *testing.T) {
	r := NewRegistry(16)
	v := 0.0
	r.Gauge("depth", func() float64 { v++; return v })
	r.Counter("total", func() float64 { return 2 * v })
	if r.NumSeries() != 2 {
		t.Fatalf("NumSeries = %d", r.NumSeries())
	}
	for i := 0; i < 10; i++ {
		r.Sample(float64(i))
	}
	if r.Samples() != 10 {
		t.Errorf("Samples = %d, want 10", r.Samples())
	}
	r.Each(func(kind Kind, s *stats.Series) {
		if s.Len() != 10 {
			t.Errorf("series %s holds %d points, want 10", s.Name, s.Len())
		}
	})
}

func TestRegistryDecimation(t *testing.T) {
	const max = 16
	r := NewRegistry(max)
	r.Gauge("g", func() float64 { return 1 })
	for i := 0; i < 10*max; i++ {
		r.Sample(float64(i))
	}
	if r.Samples() > max {
		t.Errorf("stored %d samples, cap %d: decimation failed", r.Samples(), max)
	}
	// The retained samples must stay time-ordered and uniformly spaced
	// (one stride doubling at a time keeps deltas constant).
	r.Each(func(kind Kind, s *stats.Series) {
		if s.Len() < max/2 {
			t.Fatalf("series %s kept only %d points", s.Name, s.Len())
		}
		delta := s.X[1] - s.X[0]
		for i := 1; i < s.Len(); i++ {
			if got := s.X[i] - s.X[i-1]; got != delta {
				t.Fatalf("non-uniform spacing at %d: %v vs %v\nX=%v", i, got, delta, s.X)
			}
		}
	})
}

func TestRegistryRebindRecycles(t *testing.T) {
	r := NewRegistry(8)
	r.Gauge("a", func() float64 { return 1 })
	r.Gauge("b", func() float64 { return 2 })
	for i := 0; i < 20; i++ {
		r.Sample(float64(i))
	}
	r.Rebind()
	if r.NumSeries() != 0 || r.Samples() != 0 {
		t.Fatalf("Rebind left %d series / %d samples", r.NumSeries(), r.Samples())
	}
	// Rebinding the same names must reuse the recycled buffers and sample
	// cleanly from scratch.
	r.Gauge("a", func() float64 { return 3 })
	r.Sample(0)
	if r.Samples() != 1 {
		t.Errorf("post-rebind Samples = %d, want 1", r.Samples())
	}
}

func TestRegistryWriteNDJSON(t *testing.T) {
	r := NewRegistry(8)
	r.Gauge("queue-depth", func() float64 { return 5 })
	r.Counter("results", func() float64 { return 7 })
	r.Sample(0)
	r.Sample(week)

	var buf bytes.Buffer
	r.WriteNDJSON(NewSink(&buf), Str("scenario", "x"), Int("rep", 0))
	lines := parseLines(t, buf.Bytes())
	if len(lines) != 4 {
		t.Fatalf("got %d sample lines, want 4", len(lines))
	}
	kinds := map[string]bool{}
	for _, l := range lines {
		kinds[fmt.Sprint(l["series"], "/", l["kind"])] = true
		if l["scenario"] != "x" || l["rep"] != 0.0 {
			t.Errorf("tags missing on %v", l)
		}
	}
	if !kinds["queue-depth/gauge"] || !kinds["results/counter"] {
		t.Errorf("series/kind pairs wrong: %v", kinds)
	}
}

func TestRegistryBindAfterSamplePanics(t *testing.T) {
	r := NewRegistry(8)
	r.Gauge("a", func() float64 { return 1 })
	r.Sample(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("binding after Sample did not panic")
			}
		}()
		r.Counter("late", func() float64 { return 2 })
	}()
	r.Rebind()
	r.Gauge("a", func() float64 { return 1 }) // a rebound registry binds again
}

// refWriteNDJSON is the per-line metric export that WriteNDJSON replaced,
// kept as its test-only reference: every line rendered in full from its
// own series' time and value, series by series.
func refWriteNDJSON(r *Registry, tags ...F) []byte {
	var b []byte
	r.Each(func(kind Kind, s *stats.Series) {
		for k := range s.X {
			b = append(b, `{"t":`...)
			b = appendJSONFloat(b, s.X[k])
			b = append(b, `,"week":`...)
			b = appendJSONFloat(b, s.X[k]/week)
			b = append(b, `,"series":`...)
			b = appendJSONString(b, s.Name)
			b = append(b, `,"kind":"`...)
			b = append(b, kind.String()...)
			b = append(b, `","v":`...)
			b = appendJSONFloat(b, s.Y[k])
			for j := range tags {
				b = appendField(b, &tags[j])
			}
			b = append(b, '}', '\n')
		}
	})
	return b
}

// sampledRegistry binds one series per name (gauges and counters
// alternating), each polling value(series, point), and samples it at every
// time in times.
func sampledRegistry(maxSamples int, names []string, times []float64, value func(series, point int) float64) *Registry {
	r := NewRegistry(maxSamples)
	for i, name := range names {
		bind, point := r.Gauge, 0
		if i%2 == 1 {
			bind = r.Counter
		}
		bind(name, func() float64 { point++; return value(i, point-1) })
	}
	for _, t := range times {
		r.Sample(t)
	}
	return r
}

// cadence returns n sample times from start, half a sim day apart.
func cadence(start float64, n int) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = start + float64(i)*DefaultSampleEvery
	}
	return ts
}

// blocksRegistry is an export of several blocks: 6 series of 900 points,
// about 100 lines a block. seed varies the values.
func blocksRegistry(seed int) *Registry {
	names := []string{"queue-depth", "results-received", "redundancy", "cpu-seconds", "active-hosts", "timeouts"}
	return sampledRegistry(4096, names, cadence(0, 900), func(i, k int) float64 {
		return float64(seed*1000003+i*7919+k*k) / 3
	})
}

type exportCase struct {
	name string
	reg  *Registry
	tags []F
}

func exportCases(t *testing.T) []exportCase {
	cellTags := []F{Str("scenario", "baseline"), Int("rep", 3)}
	two := []string{"queue-depth", "results-received"}
	decimated := sampledRegistry(8, two, cadence(0, 50), func(i, k int) float64 { return float64(i*100 + k) })
	if decimated.stride < 2 {
		t.Fatalf("decimated registry kept stride %d", decimated.stride)
	}
	rebound := blocksRegistry(1)
	rebound.WriteNDJSON(NewSink(io.Discard), cellTags...)
	rebound.Rebind()
	rebound.Gauge("after-rebind", func() float64 { return 0.25 })
	for _, at := range cadence(1e3, 3) {
		rebound.Sample(at)
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1}
	unbound := NewRegistry(8)
	unbound.Sample(0)
	return []exportCase{
		{"decimated (stride > 1)", decimated, cellTags},
		{"NaN and ±Inf", sampledRegistry(8, two, cadence(0, 4), func(i, k int) float64 { return specials[(i+k)%4] }), cellTags},
		{"negative zero", sampledRegistry(8, two, cadence(0, 3), func(int, int) float64 { return math.Copysign(0, -1) }), cellTags},
		{"exponent form", sampledRegistry(8, two, cadence(1e6+0.5, 5), func(i, k int) float64 { return 1e6 * math.Pow(10, float64(i*9+k)) / 3 }), cellTags},
		{"escaped tags", sampledRegistry(8, []string{`odd "series"\`}, cadence(0, 2), func(int, int) float64 { return 1 }),
			[]F{Str("scenario", `quote " back \ ctl `+"\x01\n"), Str(`k"ey`, "v"), Num("n", math.NaN()), Int("rep", -2)}},
		{"no tags", sampledRegistry(8, two, cadence(0, 3), func(i, k int) float64 { return float64(k) }), nil},
		{"no bound series", unbound, cellTags},
		{"bound series, no samples", sampledRegistry(8, two, nil, nil), cellTags},
		{"rebound", rebound, []F{Str("scenario", "s")}},
		{"several blocks", blocksRegistry(0), cellTags},
	}
}

// recordingWriter keeps every write it receives.
type recordingWriter struct{ writes [][]byte }

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(p))
	return len(p), nil
}

// TestWriteNDJSONMatchesPerLineReference is the export's differential
// oracle: for every registry shape the row-rendered, block-written export
// must produce the per-line reference's bytes, in blocks of whole lines.
func TestWriteNDJSONMatchesPerLineReference(t *testing.T) {
	for _, c := range exportCases(t) {
		t.Run(c.name, func(t *testing.T) {
			want := refWriteNDJSON(c.reg, c.tags...)
			var w recordingWriter
			sink := NewSink(&w)
			c.reg.WriteNDJSON(sink, c.tags...)
			got := bytes.Join(w.writes, nil)
			if !bytes.Equal(got, want) {
				gl, wl := bytes.SplitAfter(got, []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
				i := 0
				for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
					i++
				}
				line := func(ls [][]byte) []byte {
					if i < len(ls) {
						return ls[i]
					}
					return nil
				}
				t.Fatalf("line %d differs (%d vs %d bytes in all):\n got  %q\n want %q", i+1, len(got), len(want), line(gl), line(wl))
			}
			lines := int64(bytes.Count(want, []byte("\n")))
			if sink.Lines() != lines {
				t.Errorf("sink counted %d lines, want %d", sink.Lines(), lines)
			}
			for i, blk := range w.writes {
				if len(blk) == 0 || blk[len(blk)-1] != '\n' {
					t.Fatalf("block %d does not end a line", i)
				}
				if i < len(w.writes)-1 && len(blk) < exportBlock {
					t.Errorf("block %d holds %d bytes, under the %d-byte block", i, len(blk), exportBlock)
				}
			}
			if c.name == "several blocks" && len(w.writes) < 3 {
				t.Errorf("export of %d bytes took %d writes, want several blocks", len(want), len(w.writes))
			}
		})
	}
}

// TestSinkConcurrentRegistryExports exports several registries into one
// sink at once, as sweep workers do: every line must arrive whole, each
// registry's lines in its own order, and the sink must count them all.
func TestSinkConcurrentRegistryExports(t *testing.T) {
	const workers = 6
	var buf bytes.Buffer
	sink := NewSink(&buf)
	want := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		r, tags := blocksRegistry(w), []F{Int("worker", int64(w))}
		want[w] = refWriteNDJSON(r, tags...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.WriteNDJSON(sink, tags...)
		}()
	}
	wg.Wait()

	got := make([][]byte, workers)
	lines := parseLines(t, buf.Bytes())
	for i, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		w := int(lines[i]["worker"].(float64))
		got[w] = append(got[w], line...)
	}
	for w := range want {
		if !bytes.Equal(got[w], want[w]) {
			t.Errorf("worker %d: its %d lines arrived out of order or altered", w, bytes.Count(want[w], []byte("\n")))
		}
	}
	if total := int64(len(lines)); sink.Lines() != total || total != workers*6*900 {
		t.Errorf("sink counted %d lines, parsed %d, want %d", sink.Lines(), total, workers*6*900)
	}
}
