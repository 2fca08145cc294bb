package project

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/volunteer"
)

// recordingProbe arms the full plane: a metrics registry sampling on the
// default cadence and a trace streaming to sink (Discard when the test only
// cares about neutrality).
func recordingProbe(sink *obs.Sink) *obs.Probe {
	return &obs.Probe{
		Metrics: obs.NewRegistry(0),
		Trace:   obs.NewTrace(sink),
	}
}

// TestProbeNeutralFresh is the tentpole guarantee in test form: a fresh run
// with the full probe recording must produce a byte-identical report to the
// nil-probe golden hashes — observer events ride the kernel without touching
// the model, and every callback is read-only.
func TestProbeNeutralFresh(t *testing.T) {
	cfg := determinismConfig(t, 777)
	cfg.Probe = recordingProbe(obs.NewSink(io.Discard))
	if got := reportHash(t, New(cfg).Run()); got != goldenSeed777 {
		t.Errorf("probed fresh seed-777 report hash = %s, want golden %s (probe perturbed the simulation)", got, goldenSeed777)
	}
	cfg = determinismConfig(t, 778)
	cfg.Probe = recordingProbe(obs.NewSink(io.Discard))
	if got := reportHash(t, New(cfg).Run()); got != goldenSeed778 {
		t.Errorf("probed fresh seed-778 report hash = %s, want golden %s (probe perturbed the simulation)", got, goldenSeed778)
	}
}

// TestProbeNeutralPooled covers the pooled path: probed and unprobed runs
// interleaved through one Runner must all stay on the golden hashes — the
// probe is rebound per run and fully cleared by reset.
func TestProbeNeutralPooled(t *testing.T) {
	runner := NewRunner()
	probed := func(seed uint64) Config {
		cfg := determinismConfig(t, seed)
		cfg.Probe = recordingProbe(obs.NewSink(io.Discard))
		return cfg
	}
	runner.Run(probed(778)) // dirty the arenas with a probed run
	if got := reportHash(t, runner.Run(probed(777))); got != goldenSeed777 {
		t.Errorf("probed pooled seed-777 report hash = %s, want golden %s", got, goldenSeed777)
	}
	// An unprobed run right after a probed one: no probe state may leak.
	if got := reportHash(t, runner.Run(determinismConfig(t, 778))); got != goldenSeed778 {
		t.Errorf("unprobed pooled seed-778 after probed runs = %s, want golden %s (probe state leaked through reset)", got, goldenSeed778)
	}
	if got := reportHash(t, runner.Run(probed(777))); got != goldenSeed777 {
		t.Errorf("re-probed pooled seed-777 report hash = %s, want golden %s", got, goldenSeed777)
	}
}

// TestProbeCollects asserts the plane actually observes: a probed campaign
// yields the full metric catalog (≥ 10 series, all sampled) and a non-empty
// trace with the run-start/run-end bracket.
func TestProbeCollects(t *testing.T) {
	var lines countingWriter
	sink := obs.NewSink(&lines)
	cfg := determinismConfig(t, 777)
	cfg.Probe = recordingProbe(sink)
	if rep := New(cfg).Run(); !rep.Completed {
		t.Fatal("campaign did not complete")
	}
	reg := cfg.Probe.Metrics
	if reg.NumSeries() < 10 {
		t.Errorf("registry holds %d series, want ≥ 10", reg.NumSeries())
	}
	reg.Each(func(kind obs.Kind, s *stats.Series) {
		if s.Len() == 0 {
			t.Errorf("series %s (%s) collected no samples", s.Name, kind)
		}
	})
	if sink.Lines() == 0 {
		t.Error("trace sink saw no events")
	}
	if sink.Err() != nil {
		t.Errorf("trace sink error: %v", sink.Err())
	}
}

// countingWriter discards bytes; the test only needs the sink's own line
// accounting.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// TestSaboteurTurnTrace pins the host kernel's observer hook: a probed
// campaign and a probed co-run trace their saboteur onsets, as many pooled
// as fresh, and Reset clears the hook, so a pooled runner's next unprobed
// run writes nothing into the previous run's trace.
func TestSaboteurTurnTrace(t *testing.T) {
	turns := func(b *bytes.Buffer) int { return bytes.Count(b.Bytes(), []byte(`"event":"saboteur-turn"`)) }
	traced := func(cfg Config, buf *bytes.Buffer) Config {
		cfg.Probe = &obs.Probe{Trace: obs.NewTrace(obs.NewSink(buf))}
		return cfg
	}
	saboteurs := volunteer.SaboteurProfiles(0.1, 0.015, 0.3)

	cfg := determinismConfig(t, 777)
	cfg.Host.Profiles = saboteurs
	var fresh, pooled bytes.Buffer
	New(traced(cfg, &fresh)).Run()
	n := turns(&fresh)
	if n == 0 {
		t.Fatal("a probed saboteur campaign traced no saboteur-turn")
	}
	r := NewRunner()
	r.Run(traced(cfg, &pooled))
	r.Run(cfg)
	if got := turns(&pooled); got != n {
		t.Errorf("pooled probed run and its unprobed successor traced %d saboteur-turns, want the fresh run's %d", got, n)
	}

	gcfg := gridConfig(t, 777, nil)
	gcfg.Host.Profiles = saboteurs
	var grid bytes.Buffer
	gr := NewGridRunner()
	gr.Run(traced(gcfg, &grid))
	n = turns(&grid)
	gr.Run(gcfg)
	if n == 0 || turns(&grid) != n {
		t.Errorf("co-run traced %d saboteur-turns, then %d after an unprobed rerun; want a positive count that stays", n, turns(&grid))
	}
}
