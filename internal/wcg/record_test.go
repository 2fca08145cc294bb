package wcg

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/workunit"
)

// TestRecordSizes pins the per-object records the server keeps. The
// full-scale replay carves one WUState per distinct workunit (3,872,769)
// and one Assignment per copy sent (4,934,662), and a what-if snapshot
// holds one portableAssignment per live Assignment, so a field added to
// any of them shows up directly in the live heap.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
		cost      string
	}{
		{"WUState", unsafe.Sizeof(WUState{}), 32,
			"replay carves 3,872,769 records, so every 8 bytes added is 31 MB allocated"},
		{"portableAssignment", unsafe.Sizeof(portableAssignment{}), 16,
			"every what-if snapshot holds one per live copy at the fork"},
		{"Assignment", unsafe.Sizeof(Assignment{}), 24,
			"replay carves 4,934,662 records, so every 8 bytes added is 39 MB allocated"},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d bytes, want %d: %s", c.name, c.got, c.want, c.cost)
		}
	}
}

// TestAddWorkunitRejects: a batch the record's int32 cannot hold, or a
// duration that is not finite and positive, panics with a wcg: message
// naming the value; the extremes the record can hold are accepted. A batch
// above MaxInt32 exists only where int has 64 bits.
func TestAddWorkunitRejects(t *testing.T) {
	type addCase struct {
		batch int
		ref   float64
		want  string // "" = accepted
	}
	cases := []addCase{
		{batch: -1, ref: 100, want: "batch -1"},
		{batch: math.MinInt, ref: 100, want: fmt.Sprint("batch ", math.MinInt)},
		{batch: 0, ref: math.NaN(), want: "RefSeconds NaN"},
		{batch: 0, ref: math.Inf(1), want: "RefSeconds +Inf"},
		{batch: 0, ref: math.Inf(-1), want: "RefSeconds -Inf"},
		{batch: 0, ref: 0, want: "RefSeconds 0"},
		{batch: 0, ref: -1, want: "RefSeconds -1"},
		{batch: 0, ref: 100},
		{batch: math.MaxInt32, ref: 100},
		{batch: 0, ref: math.SmallestNonzeroFloat64},
		{batch: 0, ref: math.MaxFloat64},
	}
	if strconv.IntSize == 64 {
		over := int64(math.MaxInt32) + 1 // a variable: the constant would not compile for a 32-bit int
		cases = append(cases, addCase{batch: int(over), ref: 100, want: fmt.Sprint("batch ", over)})
	}
	for _, c := range cases {
		name := fmt.Sprintf("batch=%d ref=%v", c.batch, c.ref)
		var msg string
		func() {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			_, srv := newTestServer(q1Config())
			st := srv.AddWorkunit(workunit.Workunit{ID: 1, ISepLo: 1, ISepHi: 1, RefSeconds: c.ref}, c.batch)
			if int(st.Batch) != c.batch {
				t.Errorf("%s: stored batch %d", name, st.Batch)
			}
		}()
		switch {
		case c.want == "" && msg != "":
			t.Errorf("%s: rejected: %s", name, msg)
		case c.want != "" && msg == "":
			t.Errorf("%s: accepted, want a panic naming %q", name, c.want)
		case c.want != "" && (!strings.HasPrefix(msg, "wcg: ") || !strings.Contains(msg, c.want)):
			t.Errorf("%s: panic %q, want a wcg: message naming %q", name, msg, c.want)
		}
	}
}
