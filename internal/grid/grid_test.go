package grid

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestAnalyticMakespan(t *testing.T) {
	c := NewCluster(640)
	// The paper's calibration run: >73 CPU-days over one day on 640 procs.
	cpuDays := 73.0 * 86400
	if got := c.AnalyticMakespan(cpuDays); math.Abs(got-cpuDays/640) > 1e-9 {
		t.Fatalf("makespan = %v", got)
	}
}

func TestScheduleUniformTasks(t *testing.T) {
	c := NewCluster(4)
	durations := make([]float64, 16)
	for i := range durations {
		durations[i] = 100
	}
	res := c.Schedule(durations)
	if res.Makespan != 400 {
		t.Fatalf("makespan = %v, want 400", res.Makespan)
	}
	if res.Utilization != 1 {
		t.Fatalf("utilization = %v", res.Utilization)
	}
	if cpu := res.Utilization * res.Makespan * float64(c.Procs); cpu != 1600 || res.Tasks != 16 {
		t.Fatalf("res = %+v", res)
	}
}

func TestScheduleBoundsProperty(t *testing.T) {
	// List scheduling is within 2x of the lower bound (Graham), and never
	// below max(total/P, longest task).
	r := rng.New(3)
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := int(pRaw%8) + 1
		c := NewCluster(p)
		durations := make([]float64, n)
		var total, longest float64
		for i := range durations {
			durations[i] = r.Exponential(100) + 1
			total += durations[i]
			if durations[i] > longest {
				longest = durations[i]
			}
		}
		res := c.Schedule(durations)
		lower := math.Max(total/float64(p), longest)
		return res.Makespan >= lower-1e-9 && res.Makespan <= 2*lower+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleEmpty(t *testing.T) {
	c := NewCluster(3)
	res := c.Schedule(nil)
	if res.Makespan != 0 || res.Tasks != 0 {
		t.Fatalf("empty schedule: %+v", res)
	}
}

func TestSchedulePowerRatio(t *testing.T) {
	c := Cluster{Procs: 2, PowerRatio: 2}
	res := c.Schedule([]float64{100, 100})
	if res.Makespan != 50 {
		t.Fatalf("2x processors should halve time: %v", res.Makespan)
	}
}

func TestScheduleNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCluster(1).Schedule([]float64{-1})
}

func TestNewClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCluster(0)
}

func TestProcessorsFor(t *testing.T) {
	// 100 s of work in 10 s needs 10 processors.
	if got := ProcessorsFor(100, 10); got != 10 {
		t.Fatalf("got %d", got)
	}
	// Round up.
	if got := ProcessorsFor(101, 10); got != 11 {
		t.Fatalf("got %d", got)
	}
	// At least one.
	if got := ProcessorsFor(1, 100); got != 1 {
		t.Fatalf("got %d", got)
	}
}

func TestProcessorsForPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ProcessorsFor(1, 0)
}

func TestProcessorsForTable3(t *testing.T) {
	// Table 3: phase I cpu time 254,897,774,144 s in 16 weeks needs
	// ~26,341 virtual processors (the paper rounds down; ProcessorsFor
	// ceils, giving 26,342).
	got := ProcessorsFor(254897774144, 16*7*86400)
	if got < 26341 || got > 26342 {
		t.Fatalf("phase I processors = %d, want ≈ 26,341", got)
	}
	got = ProcessorsFor(1444998719637, 40*7*86400)
	if got < 59730 || got > 59731 {
		t.Fatalf("phase II processors = %d, want ≈ 59,730", got)
	}
}

func BenchmarkSchedule(b *testing.B) {
	c := NewCluster(640)
	r := rng.New(1)
	durations := make([]float64, 28224)
	for i := range durations {
		durations[i] = r.LogNormal(6, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Schedule(durations)
	}
}
