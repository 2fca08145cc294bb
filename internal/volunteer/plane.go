// The mega-grid SoA host plane: the data layout half of the host kernel.
//
// # SoA layout
//
// A per-host struct would be ~200 bytes of mixed hot and cold state; at 1M+
// hosts a struct-of-pointers fleet thrashes caches and allocates O(hosts)
// objects. The ShardKernel instead stores the fleet as a structure of
// arrays indexed by host ID:
//
//   - hot, touched every task: flags (packed bits), speedDown, src (the
//     host's rng stream, 32 bytes by value), cur/curOutcome/curReported
//     (the in-flight task), cacheLen + a flat cache slab (WorkBuffer
//     assignments per host);
//   - warm, touched by cohort behavior: errorProb, abandonProb, phase,
//     onlineSpan;
//   - cold, touched once per run: joinedAt, hardware, done, cpuSpent.
//
// Spawning appends to every array; a pooled Reset truncates them in place,
// so a 1M-host run allocates O(arrays), not O(hosts·structs), and the
// steady state of a pooled run context allocates nothing per host.
//
// # Per-host draw order
//
// Every model draw runs inline as the kernel executes events, from a
// stream with a single reader: the population stream, which only spawn
// reads, and each host's own stream, which only that host's spawn and
// fetch read. Where an event waits (a calendar window or the engine's heap)
// therefore never moves a draw:
//
//   - on join (spawn): from the population stream, the host's seed, then
//     its mux tie-break seed on a fleet bound to a Mux; from the host's
//     stream, the LogNormal speed-down, the cohort pick (profiled fleets
//     only) and the diurnal phase (diurnal cohorts only);
//   - on each task start (fetch), from the host's stream:
//     Bernoulli(abandon); if abandoned, Bernoulli(lateReturn) and, if
//     late, one Float64 for the extra delay; otherwise, unless the host
//     has already turned, Bernoulli(error).
package volunteer

import (
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wcg"
)

// Host-flag bits of the SoA plane (one byte per host).
const (
	hfStopped  uint8 = 1 << iota // told to stop; never fetches again
	hfBusy                       // computing a task right now
	hfSaboteur                   // errors are correlated: the first one turns the host
	hfTurned                     // saboteur gone bad: every further result is invalid
	hfDiurnal                    // computes only during a daily online window
)

// spawn joins one host and appends it to every plane array: the host
// seed, then (on a fleet bound to a Mux) the mux port seed from the
// population stream, then the join draws from the host's own stream
// (LogNormal speed-down, cohort pick, diurnal phase). The speed-down gets
// the join-time hardware-trend scaling (devices joining later are faster,
// §5.1).
//
// The LogNormal is parameterized so the fleet's harmonic mean speed-down
// is cfg.MeanSpeedDown: the paper's 3.96 is a throughput-weighted
// observation (total CPU consumed / results returned), and hosts with a
// small speed-down return more results per unit time.
func (k *ShardKernel) spawn() int32 {
	id := int32(len(k.flags))
	k.src = append(k.src, rng.Source{})
	src := &k.src[id]
	rng.NewInto(src, k.r.Uint64())
	if k.mux != nil {
		k.mux.arm(int(id), k.r.Uint64())
	}
	cfg := &k.cfg
	now := k.eng.Now()
	sd := src.LogNormal(k.mu, k.sigma)
	if cfg.HardwareTrendPerWeek > 0 {
		sd /= 1 + cfg.HardwareTrendPerWeek*now/sim.Week
	}
	if sd < 1 {
		sd = 1 // a volunteer device cannot beat its own wall clock
	}
	hw := sd / (UDThrottleFactor * PriorityFactor)
	if hw < 1 {
		hw = 1
	}
	flags := uint8(0)
	errP, abnP := cfg.ErrorProb, cfg.AbandonProb
	var phase, onlineSpan float64
	if len(cfg.Profiles) > 0 {
		p := &cfg.Profiles[pickProfile(src, cfg.Profiles)]
		errP = p.ErrorProb
		if p.AbandonProb >= 0 {
			abnP = p.AbandonProb
		}
		if p.Saboteur {
			flags |= hfSaboteur
		}
		if p.Diurnal {
			flags |= hfDiurnal
			onlineSpan = p.OnlineHours * sim.Hour
			if onlineSpan <= 0 {
				onlineSpan = DefaultOnlineHours * sim.Hour
			}
			if onlineSpan > sim.Day {
				onlineSpan = sim.Day
			}
			phase = src.Float64() * sim.Day
		}
	}
	k.flags = append(k.flags, flags)
	k.speedDown = append(k.speedDown, sd)
	k.errorProb = append(k.errorProb, errP)
	k.abandonProb = append(k.abandonProb, abnP)
	k.phase = append(k.phase, phase)
	k.onlineSpan = append(k.onlineSpan, onlineSpan)
	k.joinedAt = append(k.joinedAt, now)
	k.hardware = append(k.hardware, hw)
	k.done = append(k.done, 0)
	k.cpuSpent = append(k.cpuSpent, 0)
	k.cur = append(k.cur, nil)
	k.curOutcome = append(k.curOutcome, 0)
	k.curReported = append(k.curReported, 0)
	k.cacheLen = append(k.cacheLen, 0)
	for j := 0; j < k.buffer; j++ {
		k.cache = append(k.cache, nil)
	}
	k.active++
	return id
}

// pickProfile draws a cohort from the weighted profiles using the host's
// own stream. Panics if no profile has positive weight.
func pickProfile(src *rng.Source, profiles []BehaviorProfile) int {
	var total float64
	for _, p := range profiles {
		if p.Weight < 0 {
			panic("volunteer: negative profile weight")
		}
		total += p.Weight
	}
	if total <= 0 {
		panic("volunteer: behavior profiles need positive total weight")
	}
	target := src.Float64() * total
	var cum float64
	for i, p := range profiles {
		cum += p.Weight
		if target < cum {
			return i
		}
	}
	return len(profiles) - 1
}

// SetTarget adjusts the active host count toward n: spawning fresh hosts
// (new devices join the grid continuously) or stopping the oldest active
// ones first (devices reassigned to other projects or retired). Stopped
// hosts finish their current task and never fetch again, so the
// firstActive cursor makes a shrink O(stopped), not O(hosts ever joined).
func (k *ShardKernel) SetTarget(n int) {
	if n < 0 {
		n = 0
	}
	for k.active < n {
		k.fetch(k.spawn())
	}
	if k.active > n {
		excess := k.active - n
		for excess > 0 && k.firstActive < len(k.flags) {
			if k.flags[k.firstActive]&hfStopped == 0 {
				k.flags[k.firstActive] |= hfStopped
				k.active--
				excess--
			}
			k.firstActive++
		}
	}
}

// Active returns the number of hosts currently attached (not stopped).
func (k *ShardKernel) Active() int { return k.active }

// TotalJoined returns how many hosts ever joined.
func (k *ShardKernel) TotalJoined() int { return len(k.flags) }

// EachActive calls fn with every active (not stopped) host ID in ascending
// order.
func (k *ShardKernel) EachActive(fn func(id int)) {
	for id := k.firstActive; id < len(k.flags); id++ {
		if k.flags[id]&hfStopped == 0 {
			fn(id)
		}
	}
}

// MeanSpeedDown returns the average speed-down of all hosts ever joined,
// summed in join order — the fleet-level counterpart of the paper's
// measured 3.96.
func (k *ShardKernel) MeanSpeedDown() float64 {
	if len(k.speedDown) == 0 {
		return 0
	}
	var sum float64
	for _, sd := range k.speedDown {
		sum += sd
	}
	return sum / float64(len(k.speedDown))
}

// HostAccounting returns host i's credit inputs (the §8 points accounting):
// hardware factor, join time and reported CPU seconds accumulated.
func (k *ShardKernel) HostAccounting(i int) (hardware float64, joinedAt sim.Time, cpuSpent float64) {
	return k.hardware[i], k.joinedAt[i], k.cpuSpent[i]
}

// fetch is the host's fetch-compute-report step: top up the work cache,
// start the front assignment, draw the task's behavior from the host's
// stream in the order given above, and schedule the continuation on the
// window calendar.
func (k *ShardKernel) fetch(h int32) {
	base := int(h) * k.buffer
	if k.flags[h]&hfStopped != 0 {
		// A stopped host never fetches again: its cached copies will
		// never run, so it gives them up.
		for i, a := range k.cache[base : base+int(k.cacheLen[h])] {
			k.server.Drop(a)
			k.cache[base+i] = nil
		}
		k.cacheLen[h] = 0
		return
	}
	n := int(k.cacheLen[h])
	for n < k.buffer {
		a := k.server.RequestWorkFor(int(h))
		if a == nil {
			break
		}
		k.cache[base+n] = a
		n++
	}
	k.cacheLen[h] = int32(n)
	if n == 0 {
		d := k.cfg.IdleRetry
		if k.retry != nil {
			// The server's advisor (the fault plane) may stretch the wait:
			// exponential backoff during an outage, smear after
			// maintenance. The draw is a stateless hash of (host, window,
			// attempt), so it depends on no execution order.
			d = k.retry.FetchRetryDelay(int(h), d)
		}
		k.schedule(h, evFetch, k.eng.Now()+d, nil, 0)
		return
	}
	if k.flags[h]&hfBusy != 0 {
		return // already crunching; topping up the cache was all we needed
	}
	a := k.cache[base]
	copy(k.cache[base:base+n-1], k.cache[base+1:base+n])
	k.cache[base+n-1] = nil
	k.cacheLen[h] = int32(n - 1)
	k.flags[h] |= hfBusy
	wall := a.WU.RefSeconds * k.speedDown[h]
	reported := wall
	if k.cfg.Accounting == BOINCCPUTime {
		reported = a.WU.RefSeconds * k.hardware[h]
	}

	src := &k.src[h]
	if src.Bernoulli(k.abandonProb[h]) {
		if src.Bernoulli(k.cfg.LateReturnProb) {
			delay := k.server.DeadlineFor(a) + src.Float64()*k.cfg.LateDelayMax
			k.schedule(h, evLate, k.eng.Now()+delay, a, reported)
		} else {
			k.server.Drop(a) // never returned
		}
		k.flags[h] &^= hfBusy
		k.schedule(h, evFetch, k.eng.Now()+k.cfg.IdleRetry, nil, 0)
		return
	}

	k.cur[h] = a
	k.curReported[h] = reported
	k.curOutcome[h] = wcg.OutcomeValid
	switch {
	case k.flags[h]&hfTurned != 0:
		k.curOutcome[h] = wcg.OutcomeInvalid
	case src.Bernoulli(k.errorProb[h]):
		k.curOutcome[h] = wcg.OutcomeInvalid
		if k.flags[h]&hfSaboteur != 0 {
			k.flags[h] |= hfTurned
			if k.OnSaboteurTurn != nil {
				k.OnSaboteurTurn(int(h), k.eng.Now())
			}
		}
	}
	delay := wall
	if k.flags[h]&hfDiurnal != 0 {
		delay = diurnalDelay(k.eng.Now(), wall, k.phase[h], k.onlineSpan[h])
	}
	k.schedule(h, evDone, k.eng.Now()+delay, nil, 0)
}

// taskDone reports the finished task and fetches the next one.
func (k *ShardKernel) taskDone(h int32) {
	a, outcome, reported := k.cur[h], k.curOutcome[h], k.curReported[h]
	k.cur[h] = nil
	k.flags[h] &^= hfBusy
	k.done[h]++
	k.cpuSpent[h] += reported
	k.server.CompleteFrom(a, outcome, reported, int(h))
	k.fetch(h)
}

// lateReturn uploads an abandoned task's result after its deadline passed:
// a long-offline device reconnecting (§5.1). A turned saboteur's results
// are invalid however they arrive, so the late path cannot hand a bad host
// valid results to rebuild validation trust with.
func (k *ShardKernel) lateReturn(h int32, a *wcg.Assignment, reported float64) {
	k.cpuSpent[h] += reported
	oc := wcg.OutcomeValid
	if k.flags[h]&hfTurned != 0 {
		oc = wcg.OutcomeInvalid
	}
	k.server.CompleteFrom(a, oc, reported, int(h))
}
