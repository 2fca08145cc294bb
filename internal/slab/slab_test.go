package slab

import (
	"strings"
	"testing"
)

func TestArenaAllocZeroed(t *testing.T) {
	var a Arena[int]
	for i := 0; i < 3*Chunk; i++ {
		p, idx := a.Alloc()
		if *p != 0 {
			t.Fatalf("alloc %d not zeroed: %d", i, *p)
		}
		if idx != i {
			t.Fatalf("alloc %d got index %d", i, idx)
		}
		*p = i + 1
	}
	for i := 0; i < 3*Chunk; i++ {
		if got := *a.At(i); got != i+1 {
			t.Fatalf("At(%d) = %d, want %d", i, got, i+1)
		}
	}
}

func TestArenaDistinctPointers(t *testing.T) {
	var a Arena[int]
	seen := make(map[*int]bool)
	for i := 0; i < 2*Chunk+7; i++ {
		p, _ := a.Alloc()
		if seen[p] {
			t.Fatalf("alloc %d returned a live slot twice", i)
		}
		seen[p] = true
	}
}

// TestArenaRecyclesReleasedChunks: a fully carved chunk whose objects are
// all released is zeroed and re-carved before the arena makes a new one;
// a chunk with one live object, or the chunk still being carved, is not.
func TestArenaRecyclesReleasedChunks(t *testing.T) {
	var a Arena[int]
	first := make([]*int, 2*Chunk)
	for i := range first {
		first[i], _ = a.Alloc()
		*first[i] = 42
	}
	for i := 0; i < Chunk; i++ { // all of chunk 0
		a.Release(i)
	}
	for i := Chunk; i < 2*Chunk-1; i++ { // chunk 1 keeps its last object
		a.Release(i)
	}
	if len(a.free) != 1 {
		t.Fatalf("%d free chunks after releasing one whole chunk, want 1", len(a.free))
	}
	for i := 0; i < Chunk; i++ {
		p, idx := a.Alloc()
		if idx != 2*Chunk+i {
			t.Fatalf("index %d after recycling, want %d", idx, 2*Chunk+i)
		}
		if p != first[i] {
			t.Fatalf("alloc %d after the release did not re-carve chunk 0's slot", i)
		}
		if *p != 0 {
			t.Fatalf("re-carved slot %d not zeroed: %d", i, *p)
		}
	}
	if len(a.free) != 0 || len(a.tab) != 3 {
		t.Fatalf("free %d, table %d after re-carving", len(a.free), len(a.tab))
	}
	// The chunk being carved stays put however many of its objects die.
	for i := 2 * Chunk; i < 2*Chunk+Chunk/2; i++ {
		a.Release(i)
	}
	if p, _ := a.Alloc(); p == first[0] {
		t.Fatal("a partly released chunk was recycled")
	}
}

// TestArenaAtAfterRecycling: At resolves every live index by its
// allocation index after chunks around it were recycled and re-carved.
func TestArenaAtAfterRecycling(t *testing.T) {
	var a Arena[int]
	live := map[int]int{}
	for i := 0; i < 6*Chunk; i++ {
		p, idx := a.Alloc()
		*p = 1000 + idx
		live[idx] = *p
		// Chunks 0, 2 and 4 die as soon as they are full; 1, 3 and 5 keep
		// every tenth object.
		if l := idx / Chunk; l%2 == 0 && idx%Chunk == Chunk-1 {
			for j := l * Chunk; j <= idx; j++ {
				a.Release(j)
				delete(live, j)
			}
		} else if l%2 == 1 && idx%10 != 0 {
			a.Release(idx)
			delete(live, idx)
		}
	}
	if len(a.free) != 0 || a.tab[0].obj != nil || a.tab[2].obj != nil || a.tab[4].obj != nil {
		t.Fatalf("%d free chunks; want chunks 0, 2 and 4 re-carved as 1, 3 and 5", len(a.free))
	}
	for idx, want := range live {
		if got := *a.At(idx); got != want {
			t.Fatalf("At(%d) = %d, want %d", idx, got, want)
		}
	}
	// A recycled chunk's indices no longer resolve.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("At on a recycled chunk's index did not panic")
			}
		}()
		a.At(0)
	}()
}

// TestArenaReleaseTwicePanics: a second release of a slot panics, in a
// chunk still carved and in one already recycled.
func TestArenaReleaseTwicePanics(t *testing.T) {
	var a Arena[int]
	for i := 0; i < 2*Chunk; i++ {
		a.Alloc()
	}
	for i := 0; i < Chunk; i++ {
		a.Release(i)
	}
	a.Release(Chunk)
	for _, i := range []int{Chunk, 0, 5 * Chunk, -1} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "slab: ") {
					t.Errorf("release of %d: panic %q, want a slab: message", i, msg)
				}
			}()
			a.Release(i)
		}()
	}
}

// TestArenaResetReusesAndZeroes: Reset puts every chunk on the free list
// and rewinds the index, so the next run re-carves the same chunks, zeroed,
// without growing the arena.
func TestArenaResetReusesAndZeroes(t *testing.T) {
	var a Arena[int]
	for i := 0; i < 2*Chunk+5; i++ {
		p, _ := a.Alloc()
		*p = 42
	}
	a.Release(3)
	made := map[*[Chunk]int]bool{}
	for _, c := range a.tab {
		made[c.obj] = true
	}
	a.Reset()
	if a.n != 0 || len(a.tab) != 0 || len(a.free) != 3 {
		t.Fatalf("after Reset: index %d, table %d, free %d; want 0, 0, 3", a.n, len(a.tab), len(a.free))
	}
	for i := 0; i < 3*Chunk; i++ {
		p, idx := a.Alloc()
		if idx != i || *p != 0 {
			t.Fatalf("alloc %d after Reset: index %d, value %d", i, idx, *p)
		}
	}
	for l, c := range a.tab {
		if !made[c.obj] || c.live != Chunk {
			t.Fatalf("chunk %d after Reset: reused %v, live %d", l, made[c.obj], c.live)
		}
	}
}

// TestExportAdoptLiveChunks: an adopter carves, resolves and releases
// exactly as the exported arena would, and the export carries only the
// chunks still carved.
func TestExportAdoptLiveChunks(t *testing.T) {
	var src Arena[int]
	for i := 0; i < 4*Chunk+9; i++ {
		p, _ := src.Alloc()
		*p = i + 1
	}
	for i := 0; i < 2*Chunk; i++ { // chunks 0 and 1 recycle
		src.Release(i)
	}
	src.Release(3*Chunk + 7)
	p := Export(&src, func(v *int) int { return -*v })
	if len(p.logical) != 3 || p.logical[0] != 2 {
		t.Fatalf("exported chunks %v, want [2 3 4]", p.logical)
	}
	var dst Arena[int]
	for i := 0; i < Chunk; i++ { // a dirty adopter
		dst.Alloc()
	}
	dst.Reset()
	Adopt(&dst, &p, func(d, s *int, i int) {
		if *s != -(i + 1) {
			t.Fatalf("object %d adopted from %d", i, *s)
		}
		*d = -*s
	})
	for i := 2 * Chunk; i < 4*Chunk+9; i++ {
		if i == 3*Chunk+7 {
			continue
		}
		if got := *dst.At(i); got != i+1 {
			t.Fatalf("adopted At(%d) = %d", i, got)
		}
	}
	if *dst.At(3*Chunk + 7) != 0 {
		t.Error("a released slot was adopted with contents")
	}
	q1, i1 := src.Alloc()
	q2, i2 := dst.Alloc()
	if i1 != i2 || *q1 != 0 || *q2 != 0 {
		t.Fatalf("next allocation: source %d, adopter %d", i1, i2)
	}
	for i := 2 * Chunk; i < 3*Chunk; i++ {
		dst.Release(i)
	}
	if dst.tab[2].obj != nil || len(dst.free) == 0 {
		t.Error("an adopted chunk did not recycle once its objects were released")
	}
}

func BenchmarkArenaSteadyState(b *testing.B) {
	var a Arena[[4]uint64]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < Chunk; j++ {
			a.Alloc()
		}
		a.Reset()
	}
}
