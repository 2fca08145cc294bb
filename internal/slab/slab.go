// Package slab provides the one arena that simulation objects created by
// the million are carved from: instead of one heap allocation per object,
// objects are carved from fixed-size chunks by a bump pointer, and a chunk
// whose objects have all been released is recycled whole.
//
// Every object carved since the last Reset has an allocation index, its
// position in allocation order. Allocation order is deterministic for a
// deterministic run, so the index is a portable name for an arena object:
// snapshot materialization translates intra-run pointers to indices, and
// the adopting run context resolves them through At against the live
// chunks it installed from the snapshot (Export, Adopt).
//
// The owner releases each object exactly once, when nothing can read it
// again; a second release of a slot panics. A chunk stays carved while any
// of its objects is live, so records that bump allocation laid out in
// order stay in that order: recycling is whole-chunk, never per slot. A
// fully carved chunk whose live count drops to zero goes on a free list,
// and the next chunk the arena needs is a free one, zeroed, before any new
// chunk is made. Reset frees every chunk, so a pooled run context keeps
// the chunks of its peak live set across runs instead of everything a run
// ever carved.
package slab

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/snapshot"
)

// Chunk is the number of objects carved from one allocation.
const Chunk = 512

// usedWords is the length of a chunk's live-object bitmap.
const usedWords = Chunk / 64

// minTab is the least capacity the chunk table and the free list grow to:
// one table allocation of 40 KiB at most covers Chunk chunks, Chunk²
// objects. Both grow by doubling, so a run that carves n chunks grows each
// about log2(n / minTab) times.
const minTab = Chunk

// Arena is a chunked bump allocator that recycles released chunks. The
// zero value is ready to use. A chunk's objects are one allocation of
// exactly Chunk objects, so they keep their size class; its live-object
// bitmap and live count sit beside them in the arena's chunk table.
type Arena[T any] struct {
	tab  []chunk[T]  // logical chunk (index / Chunk) → its chunk
	free []*[Chunk]T // recycled objects, taken last in first out
	n    int         // objects carved since Reset: the next allocation index
}

// chunk is one logical chunk: its objects (nil once recycled), its
// live-object bitmap (bit j set from the carving of object j until its
// release) and its count of set bits.
type chunk[T any] struct {
	obj  *[Chunk]T
	used [usedWords]uint64
	live int
}

// Alloc returns the next zeroed object and its allocation index, starting
// a chunk when the current one is full: a recycled one if any is free,
// otherwise a new one. The chunk being carved is always the last logical
// chunk.
func (a *Arena[T]) Alloc() (*T, int) {
	i := a.n
	j := uint(i) % Chunk
	if j == 0 {
		if len(a.tab) == cap(a.tab) {
			a.tab = slices.Grow(a.tab, max(len(a.tab), minTab)) // double
		}
		a.tab = append(a.tab, chunk[T]{obj: a.take()})
	}
	c := &a.tab[len(a.tab)-1]
	c.used[j/64] |= 1 << (j % 64)
	c.live++
	a.n++
	return &c.obj[j], i
}

// take returns zeroed objects for a chunk, recycled if any are free.
func (a *Arena[T]) take() *[Chunk]T {
	k := len(a.free) - 1
	if k < 0 {
		return new([Chunk]T)
	}
	obj := a.free[k]
	a.free[k] = nil
	a.free = a.free[:k]
	clear(obj[:])
	return obj
}

// Release marks the object with allocation index i dead. The caller must
// hold no pointer to it that it will read again: once every object of a
// fully carved chunk is released, the chunk is recycled, and At panics on
// its indices. Releasing a slot that is not live panics.
func (a *Arena[T]) Release(i int) {
	l, j := i/Chunk, uint(i)%Chunk
	if i < 0 || l >= len(a.tab) || a.tab[l].used[j/64]&(1<<(j%64)) == 0 {
		panic(fmt.Sprintf("slab: release of object %d, which is not live", i))
	}
	c := &a.tab[l]
	c.used[j/64] &^= 1 << (j % 64)
	c.live--
	if c.live == 0 && (l+1)*Chunk <= a.n {
		a.recycle(c.obj)
		c.obj = nil
	}
}

// recycle puts a chunk's objects on the free list, which grows by the
// table's length at a time: a run can free at most every chunk it carved.
func (a *Arena[T]) recycle(obj *[Chunk]T) {
	if len(a.free) == cap(a.free) {
		a.free = slices.Grow(a.free, max(len(a.tab), minTab))
	}
	a.free = append(a.free, obj)
}

// At returns the object with allocation index i, which must lie in a live
// chunk (one not recycled since the object was carved).
func (a *Arena[T]) At(i int) *T {
	return &a.tab[i/Chunk].obj[i%Chunk]
}

// Reset frees every chunk for reuse and rewinds the allocation index to
// zero. All pointers obtained from Alloc before the Reset must be dead:
// using one afterwards reads (and corrupts) whatever object is carved into
// that slot next.
func (a *Arena[T]) Reset() {
	for _, c := range a.tab {
		if c.obj != nil {
			a.recycle(c.obj)
		}
	}
	clear(a.tab)
	a.tab = a.tab[:0]
	a.n = 0
}

// Portable is an arena's live chunks in a form another arena can adopt
// (see the snapshot package): the allocation index, and for each chunk
// still carved its logical number, its live-object bitmap and its objects
// converted to U, released slots zero.
type Portable[U any] struct {
	n       int
	logical []int32
	used    [][usedWords]uint64
	obj     []U // Chunk objects per chunk
}

// Bytes returns the portable arena's memory footprint for the
// snapshot_bytes accounting.
func (p *Portable[U]) Bytes() int {
	return snapshot.Size(p.logical) + snapshot.Size(p.used) + snapshot.Size(p.obj)
}

// Export copies a's carved chunks into portable form, converting each live
// object with conv.
func Export[T, U any](a *Arena[T], conv func(*T) U) Portable[U] {
	p := Portable[U]{n: a.n}
	for l := range a.tab {
		if a.tab[l].obj != nil {
			p.logical = append(p.logical, int32(l))
			p.used = append(p.used, a.tab[l].used)
		}
	}
	p.obj = make([]U, len(p.logical)*Chunk)
	for k, l := range p.logical {
		obj := a.tab[l].obj
		eachLive(&p.used[k], func(j int) { p.obj[k*Chunk+j] = conv(&obj[j]) })
	}
	return p
}

// Adopt installs p onto a's own chunks, a having been Reset: each chunk of
// p takes recycled (or new) objects under its logical number, and each
// live object is built by conv from its portable form and its allocation
// index. Afterwards a carves, resolves and releases exactly as the
// exported arena would have.
func Adopt[T, U any](a *Arena[T], p *Portable[U], conv func(dst *T, src *U, i int)) {
	a.n = p.n
	nl := (p.n + Chunk - 1) / Chunk
	a.tab = slices.Grow(a.tab[:0], nl)[:nl]
	clear(a.tab)
	for k, l := range p.logical {
		c := &a.tab[l]
		c.obj, c.used = a.take(), p.used[k]
		for _, w := range c.used {
			c.live += bits.OnesCount64(w)
		}
		obj, base := c.obj, int(l)*Chunk
		eachLive(&p.used[k], func(j int) { conv(&obj[j], &p.obj[k*Chunk+j], base+j) })
	}
}

// eachLive calls fn with the slot of every set bit of a live-object bitmap,
// in ascending order.
func eachLive(used *[usedWords]uint64, fn func(j int)) {
	for w, word := range used {
		for word != 0 {
			fn(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}
