package main

import (
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine this benchmark was built on shares its memory system with
// other tenants: back-to-back identical ops differ by 10-30 % in wall time
// while a pure compute loop varies by 2 %, and the slow spells last from
// seconds to minutes, longer than an op. Medians over more ops cannot
// remove a spell that covers the whole run, so end-to-end times are
// rescaled by the memory speed the machine had while they were measured.
//
// The probe is a goroutine that, every probeEvery, times one slice of
// random read-modify-writes over a table of its own. The table lives
// outside the Go heap, so heap metrics do not see it. A time measured over
// a window is scaled by probeNominal / (median slice time in the window):
// the time the window would have taken at the nominal memory speed. The
// median, not the mean, because when the op keeps both cores busy some
// slices wait for one. The probe shares the memory system with the op it
// watches, so an op that adds memory traffic also slows the probe a
// little, which hides a few percent of such a regression.
const (
	probeEvery   = 10 * time.Millisecond
	probeOps     = 1 << 14
	probeTableMB = 64
	// probeNominal is the slice time of an unloaded spell on the machine
	// the baseline was measured on.
	probeNominal = 300 * time.Microsecond
)

type memProbe struct {
	table []uint64

	mu      sync.Mutex // guards samples
	samples []float64

	stop, done chan struct{}
}

// startProbe maps the probe table and starts sampling.
func startProbe() (*memProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeTableMB<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	p := &memProbe{
		table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), len(mem)/8),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i := range p.table {
		p.table[i] = uint64(i) // touch every page before the first sample
	}
	go p.run()
	return p, nil
}

func (p *memProbe) run() {
	defer close(p.done)
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	x := uint64(0x9e3779b97f4a7c15)
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
			d := p.slice(&x)
			p.mu.Lock()
			p.samples = append(p.samples, d.Seconds())
			p.mu.Unlock()
		}
	}
}

// slice times probeOps independent random read-modify-writes of the
// table.
func (p *memProbe) slice(x *uint64) time.Duration {
	mask := uint64(len(p.table) - 1)
	var s uint64
	t0 := time.Now()
	for i := 0; i < probeOps; i++ {
		*x ^= *x << 13
		*x ^= *x >> 7
		*x ^= *x << 17
		j := *x & mask
		s += p.table[j]
		p.table[j] = s
	}
	return time.Since(t0)
}

// window starts a new measuring window and returns a function that closes
// it and returns the factor rescaling a time measured over the window to
// nominal memory speed (1 when the window was too short to hold a sample).
func (p *memProbe) window() func() float64 {
	p.mu.Lock()
	p.samples = p.samples[:0]
	p.mu.Unlock()
	return func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		if len(p.samples) == 0 {
			return 1
		}
		return probeNominal.Seconds() / median(p.samples)
	}
}

// close stops sampling, waits for the goroutine and unmaps the table.
func (p *memProbe) close() error {
	close(p.stop)
	<-p.done
	mem := unsafe.Slice((*byte)(unsafe.Pointer(&p.table[0])), len(p.table)*8)
	p.table = nil
	return syscall.Munmap(mem)
}
