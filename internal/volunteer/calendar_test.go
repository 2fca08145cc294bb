package volunteer

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wcg"
)

// checkTake pushes evs into window w of c, arms it and checks the merge
// buffer against a comparison sort of the same events by planeEventLess.
// It also checks that the window's chunks all went back to the free list,
// emptied. c may be reused, but must hold no other pending window.
func checkTake(t *testing.T, c *shardCal, w int, width float64, evs []planeEvent) {
	t.Helper()
	free0 := freeChunks(t, c)
	for _, ev := range evs {
		c.push(w, ev)
	}
	c.take(w, width)

	want := slices.Clone(evs)
	slices.SortFunc(want, planeEventLess)
	if len(c.cur) != len(want) || c.cursor != 0 {
		t.Fatalf("window %d: armed %d events (cursor %d), want %d", w, len(c.cur), c.cursor, len(want))
	}
	for i := range want {
		if c.cur[i] != want[i] {
			t.Fatalf("window %d (%d events, width %v): event %d is (%v, %d), want (%v, %d)",
				w, len(want), width, i, c.cur[i].at, c.cur[i].seq, want[i].at, want[i].seq)
		}
	}
	if c.count(w) != 0 || len(c.wins) > c.next {
		t.Fatalf("window %d still holds %d events after take", w, c.count(w))
	}
	if got, want := freeChunks(t, c), max(free0, (len(evs)+chunkEvents-1)/chunkEvents); got != want {
		t.Fatalf("window %d: %d chunks on the free list after take, want %d", w, got, want)
	}
}

// freeChunks counts the free list, failing on a chunk that still counts
// events. A free chunk's stale events pin nothing, so they stay.
func freeChunks(t *testing.T, c *shardCal) int {
	t.Helper()
	n := 0
	for ch := c.free; ch != nil; ch = ch.next {
		if ch.n != 0 {
			t.Fatalf("free chunk %d holds %d events", n, ch.n)
		}
		n++
	}
	return n
}

// TestCalendarLayout pins what a calendar entry costs: 24 bytes and no
// pointer, so a window's chunks pin no assignment and the collector scans
// only a chunk's link, its first field; and a chunk fills its size class.
func TestCalendarLayout(t *testing.T) {
	if got := unsafe.Sizeof(planeEvent{}); got != 24 {
		t.Errorf("planeEvent is %d bytes, want 24", got)
	}
	if holdsPointer(reflect.TypeOf(planeEvent{})) {
		t.Error("planeEvent holds a pointer")
	}
	chunk := reflect.TypeOf(eventChunk{})
	if f := chunk.Field(0); f.Name != "next" || f.Offset != 0 {
		t.Errorf("eventChunk's first field is %s at offset %d, want its link", f.Name, f.Offset)
	}
	for i := 1; i < chunk.NumField(); i++ {
		if f := chunk.Field(i); holdsPointer(f.Type) {
			t.Errorf("eventChunk.%s holds a pointer", f.Name)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	size := uint64(chunk.Size())
	for _, class := range ms.BySize {
		if uint64(class.Size) >= size {
			if slack := uint64(class.Size) - size; slack >= uint64(unsafe.Sizeof(planeEvent{})) {
				t.Errorf("a %d-byte chunk leaves %d bytes of its %d-byte size class unused", size, slack, class.Size)
			}
			return
		}
	}
	t.Errorf("a %d-byte chunk is above the small size classes", size)
}

// holdsPointer reports whether a value of type typ holds a pointer the
// collector must scan.
func holdsPointer(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return typ.Len() > 0 && holdsPointer(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if holdsPointer(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.Slice, reflect.String:
		return true
	}
	return false
}

// seqEvents returns events at the given times with seq = push order.
func seqEvents(ats []float64) []planeEvent {
	evs := make([]planeEvent, len(ats))
	for i, at := range ats {
		evs[i] = planeEvent{at: at, seq: uint64(i), host: int32(i), kind: uint8(i % 3)}
	}
	return evs
}

// TestShardCalTakeOrder arms windows that stress the bucket pass — ties,
// clamped edges, more events than buckets, a bucket above the insertion
// cutoff, seqs against push order — and checks the exact (time, seq) order.
func TestShardCalTakeOrder(t *testing.T) {
	const width = 1800.0
	r := rng.New(14)
	// uniform returns n times drawn uniformly over window w.
	uniform := func(w, n int) []float64 {
		ats := make([]float64, n)
		for i := range ats {
			ats[i] = (float64(w) + r.Float64()) * width
		}
		return ats
	}
	cases := []struct {
		name string
		w    int
		evs  []planeEvent
	}{
		{"empty", 3, nil},
		{"single", 3, seqEvents([]float64{3.5 * width})},
		{"identical-times", 9, seqEvents(func() []float64 {
			ats := make([]float64, 5000)
			for i := range ats {
				ats[i] = 9.25 * width
			}
			return ats
		}())},
		{"clamp-edges", 40, seqEvents([]float64{
			math.Nextafter(41*width, 0), 40.5 * width, math.Nextafter(40*width, 0),
			40 * width, math.Nextafter(41*width, 0), math.Nextafter(40*width, 0),
			math.Nextafter(40*width, math.Inf(1)), 40.999 * width,
		})},
		{"more-than-calBuckets", 12, seqEvents(uniform(12, 3*calBuckets+17))},
		{"one-bucket-above-cutoff", 5, func() []planeEvent {
			ats := uniform(5, 2000)
			// 200 events inside the first of 2000 buckets, some tied.
			for i := 0; i < 200; i++ {
				ats[i*10] = 5*width + float64(i%50)*width/2000/64
			}
			return seqEvents(ats)
		}()},
		{"out-of-seq-order", 7, func() []planeEvent {
			evs := seqEvents(uniform(7, 3000))
			for i := range evs {
				evs[i].seq = uint64(len(evs) - i) // descending
				if i%4 == 0 {
					evs[i].at = 7.5 * width // ties broken against push order
				}
			}
			return evs
		}()},
		{"outside-window", 2, seqEvents([]float64{
			-1, 2.5 * width, 0, 3 * width, math.Inf(1), 2 * width, math.Inf(-1), 1e300, 2.5 * width,
		})},
	}
	shared := new(shardCal)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkTake(t, new(shardCal), tc.w, width, tc.evs)
			// The same window on one long-lived calendar: recycled chunks
			// and a merge buffer grown by the previous case. The table
			// starts over, since the cases' windows do not ascend.
			shared.reset(0)
			checkTake(t, shared, tc.w, width, tc.evs)
		})
	}
}

// fuzzEvents decodes 3-byte records into events around window w: a mode
// byte picks a time inside the window (fine or coarse, the coarse grid
// forcing ties), one ulp below either edge, exactly the lower edge, or far
// outside; seqs are push order multiplied by the odd 2·perm+1 (mod 2^16),
// unique and in any order.
func fuzzEvents(w int, width float64, perm uint16, data []byte) []planeEvent {
	lo, hi := float64(w)*width, float64(w+1)*width
	n := min(len(data)/3, 1<<16)
	evs := make([]planeEvent, n)
	for i := range evs {
		mode, frac := data[3*i]%8, float64(uint16(data[3*i+1])<<8|uint16(data[3*i+2]))
		var at float64
		switch mode {
		case 4:
			at = lo + width*float64(int(frac)&0xff)/256
		case 5:
			at = math.Nextafter(lo, math.Inf(-1))
		case 6:
			at = math.Nextafter(hi, math.Inf(-1))
		case 7:
			at = lo + (frac-32768)*(width/64)
		default:
			at = lo + width*frac/65536
		}
		evs[i] = planeEvent{at: at, seq: uint64(uint16(i) * (2*perm + 1)), host: int32(i), kind: mode % 3}
	}
	return evs
}

// FuzzShardCalTake checks the armed order of fuzzed windows (see
// fuzzEvents) against a comparison sort, on a fresh calendar and then on
// the next window of the same one.
func FuzzShardCalTake(f *testing.F) {
	f.Fuzz(func(t *testing.T, w uint8, width float64, perm uint16, data []byte) {
		if !(width > 0) || math.IsInf(float64(int(w)+2)*width, 0) {
			t.Skip("window bounds not finite")
		}
		evs := fuzzEvents(int(w), width, perm, data)
		c := new(shardCal)
		checkTake(t, c, int(w), width, evs)
		// The next window on the same calendar reuses the chunks and the
		// merge buffer.
		next := fuzzEvents(int(w)+1, width, perm+1, data)
		checkTake(t, c, int(w)+1, width, next)
	})
}

// TestWindowTableFollowsPendingSpan runs the differential fleet for eight
// sim-weeks at the campaign's one-minute window floor and checks, every
// sim day, that the window table holds no more than the span from the
// armed window to the furthest pending one plus the compaction slack, and
// that a kernel adopting the run's snapshot holds just the span its table
// and ring reach: the table follows the pending events, not the horizon.
// The adopter routes every exported plane event where schedule would put
// it: one due inside the armed window (the armed buffer's unread rest, an
// early ring entry) into its engine's heap, any other — ring entries
// included — into its window table, so its ring stays empty.
func TestWindowTableFollowsPendingSpan(t *testing.T) {
	e := sim.NewEngine()
	s := diffServer(e, 3000, 0, 0)
	cfg := diffFleetConfig()
	k := NewShardKernel(e, retryStub{s}, cfg, rng.New(404), sim.Minute)
	adopter := NewShardKernel(sim.NewEngine(), retryStub{s}, cfg, rng.New(404), sim.Minute)
	for _, ft := range fleetTargets {
		e.Schedule(sim.Time(ft.week)*sim.Week, func() { k.SetTarget(ft.hosts) })
	}
	ringSeen := 0
	for day := 1; day <= 56; day++ {
		k.RunUntil(float64(day) * sim.Day)
		furthest := k.win // the armed window
		for w := k.win + 1; w <= k.win+len(k.cal.wins); w++ {
			if k.cal.count(w) > 0 {
				furthest = w
			}
		}
		span := furthest - k.win
		if n := len(k.cal.wins); n > span+max(compactSlack, span) {
			t.Fatalf("day %d: the window table holds %d windows, the pending span %d", day, n, span)
		}
		ring := ringEntries(k)
		early := 0 // ring entries due inside the armed window
		for _, ev := range ring {
			if ev.at < k.winEnd {
				early++
			}
			furthest = max(furthest, int(ev.at/k.window))
		}

		adopter.eng.Reset()
		p, evs := k.ExportPortable(nil)
		adopter.AdoptPortable(p, func(int32) *wcg.Assignment { return nil })
		for _, pe := range evs {
			adopter.AdoptEvent(pe, nil)
		}
		if n := len(adopter.cal.wins); n > furthest-k.win {
			t.Fatalf("day %d: the adopted window table holds %d windows, the pending span %d", day, n, furthest-k.win)
		}
		heap, err := adopter.eng.ExportEvents()
		if err != nil {
			t.Fatal(err)
		}
		armedRest := len(k.cal.cur) - k.cal.cursor
		if got, want := len(heap), armedRest+early; got != want {
			t.Fatalf("day %d: the adopted heap holds %d events, want the armed rest %d and %d early ring entries", day, got, armedRest, early)
		}
		got, want := tableEvents(adopter), tableEvents(k)+len(ring)-early
		if got != want || adopter.livePlane != got || adopter.cal.ring.n != 0 {
			t.Fatalf("day %d: the adopted table holds %d events (live %d, ring %d), want %d: the source's table and later ring entries",
				day, got, adopter.livePlane, adopter.cal.ring.n, want)
		}
		ringSeen += len(ring)
	}
	if ringSeen == 0 {
		t.Fatal("no day's snapshot held a pending retry on the ring")
	}
}

// tableEvents counts the events of k's pending calendar windows.
func tableEvents(k *ShardKernel) int {
	n := 0
	for _, win := range k.cal.wins[k.cal.next:] {
		n += win.n
	}
	return n
}
