package volunteer

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wcg"
)

// TestIdleRetriesRouteByDelay binds three hosts to a server with no work
// behind retryStub, which halves host 0's idle retry, leaves host 1's at
// IdleRetry and stretches host 2's by half. Whatever advisor is bound, the
// delay decides where a retry waits: host 1's on the idle-retry ring,
// the others' in calendar windows — on joining, and after ten idle
// retries' worth of empty fetches.
func TestIdleRetriesRouteByDelay(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultHostConfig()
	r := cfg.IdleRetry
	k := NewShardKernel(e, retryStub{diffServer(e, 0, 0, 0)}, cfg, rng.New(1), r/4)
	k.SetTarget(3)
	for _, tc := range []struct {
		now  sim.Time
		want [3]sim.Time // each host's pending retry
	}{
		{0, [3]sim.Time{r / 2, r, 1.5 * r}},
		{10 * r, [3]sim.Time{10.5 * r, 11 * r, 10.5 * r}},
	} {
		k.RunUntil(tc.now)
		ring := ringEntries(k)
		if len(ring) != 1 || ring[0].host != 1 || ring[0].at != tc.want[1] || ring[0].kind != evFetch {
			t.Fatalf("at %v s: the ring holds %+v, want only host 1's fetch at %v", tc.now, ring, tc.want[1])
		}
		table := 0
		for _, win := range k.cal.wins[k.cal.next:] {
			for ch := win.head; ch != nil; ch = ch.next {
				for _, ev := range ch.ev[:ch.n] {
					if ev.host == 1 || ev.at != tc.want[ev.host] || ev.kind != evFetch {
						t.Fatalf("at %v s: a window holds host %d's kind-%d event at %v", tc.now, ev.host, ev.kind, ev.at)
					}
					table++
				}
			}
		}
		if table != 2 || k.livePlane != 3 {
			t.Fatalf("at %v s: %d events in the window table and %d plane events live, want 2 and 3", tc.now, table, k.livePlane)
		}
	}
}

// bitSource is a work source over a server that a fuzzed bit stream
// steers: each fetch attempt and each retry advice reads the next bit
// (cycling through the stream; no stream reads zeros). A set bit refuses
// the fetch, or stretches the retry by half, so hosts move between the
// idle-retry ring, calendar windows and the engine's heap.
type bitSource struct {
	*wcg.Server
	bits []byte
	i    int
}

func (s *bitSource) next() bool {
	if len(s.bits) == 0 {
		return false
	}
	b := s.bits[s.i/8%len(s.bits)]>>(s.i%8)&1 == 1
	s.i++
	return b
}

func (s *bitSource) RequestWorkFor(host int) *wcg.Assignment {
	if s.next() {
		return nil
	}
	return s.Server.RequestWorkFor(host)
}

func (s *bitSource) FetchRetryDelay(host int, idle float64) float64 {
	if s.next() {
		return 1.5 * idle
	}
	return idle
}

// FuzzKernelMatchesReference runs the differential oracle of
// TestKernelMatchesReferenceFleet over fuzzed fleets: the seed, the host
// count (1 to 64; halved in week 1, restored in week 2), the window width
// (log-uniform from one minute to two weeks) and the bit stream of a
// bitSource, for three sim-weeks against a 300-workunit server. Narrow
// windows send flat idle retries to the ring and wide ones to the
// engine's heap; stretched retries and task completions go to calendar
// windows. The kernel must match the reference fleet host for host, and
// its ring must keep its invariants at every half-hour checkpoint.
func FuzzKernelMatchesReference(f *testing.F) {
	f.Add(uint64(404), uint8(40), uint16(0), []byte{})
	f.Add(uint64(7), uint8(63), uint16(20000), []byte{0x55, 0x0f})
	f.Add(uint64(1), uint8(12), uint16(65535), []byte{0xff, 0x00, 0x81})
	f.Add(uint64(99), uint8(30), uint16(40000), []byte{0xa5})
	f.Fuzz(func(t *testing.T, seed uint64, hosts uint8, width uint16, bits []byte) {
		if len(bits) > 64 {
			bits = bits[:64]
		}
		n := int(hosts)%64 + 1
		w := sim.Minute * math.Pow(2*sim.Week/sim.Minute, float64(width)/math.MaxUint16)
		cfg := diffFleetConfig()
		run := func(mk fleetUnder) fleetOutcome {
			e := sim.NewEngine()
			s := diffServer(e, 300, int(seed%5), 0)
			targets := []fleetTarget{{0, n}, {1, (n + 1) / 2}, {2, n}}
			return runFleet(e, []*wcg.Server{s}, &bitSource{Server: s, bits: bits}, nil, targets, 3*sim.Week, mk)
		}
		want := run(refFleetUnder(cfg, seed))
		got := run(kernelUnder(cfg, seed, w))
		compareFleets(t, fmt.Sprintf("seed %d, %d hosts, window %gs", seed, n, w), got, want)
	})
}
