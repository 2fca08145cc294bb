// The mega-grid SoA host plane: the data layout half of the sharded kernel.
//
// # SoA layout
//
// A per-host struct would be ~200 bytes of mixed hot and cold state; at 1M+
// hosts a struct-of-pointers fleet thrashes caches and allocates O(hosts)
// objects. The ShardKernel instead stores the fleet as a structure of
// arrays indexed by host ID:
//
//   - hot, touched every task: flags (packed bits), speedDown, src (the
//     host's rng stream, 32 bytes by value), dec (the precomputed next
//     per-task decision), cur/curOutcome/curReported (the in-flight task),
//     cacheLen + a flat cache slab (WorkBuffer assignments per host);
//   - warm, touched by cohort behavior: errorProb, abandonProb, phase,
//     onlineSpan;
//   - cold, touched once per run: joinedAt, hardware, done, cpuSpent.
//
// Spawning appends to every array; a pooled Reset truncates them in place,
// so a 1M-host run allocates O(arrays), not O(hosts·structs), and the
// steady state of a pooled run context allocates nothing per host.
//
// # Precomputed decision transcripts
//
// The per-task random transcript of a fetch is a short prefix of the
// host's private stream: Bernoulli(abandon); if abandoned,
// Bernoulli(lateReturn) and, if late, one Float64 for the extra delay;
// otherwise — unless the host has already turned — Bernoulli(error). Nothing
// else reads the stream between tasks, so the next transcript can be drawn
// one task ahead, in parallel, without changing any draw's position: the
// shard workers refill consumed decision tuples at every window barrier,
// reading the turned bit as of the barrier (it only flips in the serial
// merge, which consumes the tuple that flips it before the next refill).
// A host that starts two tasks inside one window finds its tuple consumed
// and draws inline in the serial merge — same stream, same bits, just not
// prefetched. Spawn transcripts (speed-down LogNormal, cohort pick, diurnal
// phase, first decision) are precomputed the same way into a slot pool:
// weekly spawn counts are exact functions of serial state, so the pool is
// topped up at the window barrier before each weekly tick, and host seeds
// are pre-drawn FIFO from the population stream (nothing else reads it).
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

// Decision-transcript bits: the outcome of one task's behavior draws.
const (
	dValid   uint8 = 1 << iota // tuple holds an unconsumed transcript
	dAbandon                   // volunteer shelves the task; deadline passes
	dLate                      // abandoned result still returns, late
	dErr                       // result comes back invalid
	dTurns                     // this error turns a saboteur permanently bad
)

// decision is one precomputed per-task draw transcript.
type decision struct {
	lateFrac float64 // late-return delay fraction (dLate only)
	flags    uint8
}

// spawnSlot is one precomputed host initialization: the draws a host makes
// from its own stream when it joins, plus the stream state after them.
// Time-dependent scaling (the hardware trend) is applied at consume time,
// because only then is the host's join time known.
type spawnSlot struct {
	portSeed    uint64     // mux tie-break stream seed (multi-project fleets only)
	src         rng.Source // stream state after the init + first-decision draws
	rawSD       float64    // LogNormal speed-down before trend scaling
	phase       float64    // diurnal window offset (0 unless hfDiurnal)
	onlineSpan  float64    // diurnal window length (0 unless hfDiurnal)
	errorProb   float64    // resolved per-task invalid probability
	abandonProb float64    // resolved per-task abandon probability
	dec         decision   // the host's first decision transcript
	flags       uint8      // hfSaboteur / hfDiurnal cohort bits
}

// computeDecision draws one task transcript from src in the fetch loop's
// branch order: abandon; if abandoned, late return and its delay fraction;
// otherwise the error bit — which a turned host does not draw.
func computeDecision(src *rng.Source, errorProb, abandonProb, lateProb float64, turned, saboteur bool) decision {
	d := decision{flags: dValid}
	if src.Bernoulli(abandonProb) {
		d.flags |= dAbandon
		if src.Bernoulli(lateProb) {
			d.flags |= dLate
			d.lateFrac = src.Float64()
		}
		return d
	}
	if turned {
		d.flags |= dErr
		return d
	}
	if src.Bernoulli(errorProb) {
		d.flags |= dErr
		if saboteur {
			d.flags |= dTurns
		}
	}
	return d
}

// buildSlot precomputes one host initialization from its seed: the join
// draws (LogNormal speed-down, cohort pick, diurnal phase) followed by the
// host's first decision transcript.
//
// The LogNormal is parameterized so the fleet's harmonic mean speed-down
// is cfg.MeanSpeedDown: the paper's 3.96 is a throughput-weighted
// observation (total CPU consumed / results returned), and hosts with a
// small speed-down return more results per unit time.
func (k *ShardKernel) buildSlot(slot *spawnSlot, seed uint64) {
	rng.NewInto(&slot.src, seed)
	slot.rawSD = slot.src.LogNormal(k.mu, k.sigma)
	cfg := &k.cfg
	flags := uint8(0)
	errP, abnP := cfg.ErrorProb, cfg.AbandonProb
	slot.phase, slot.onlineSpan = 0, 0
	if len(cfg.Profiles) > 0 {
		pi := pickProfile(&slot.src, cfg.Profiles)
		p := &cfg.Profiles[pi]
		errP = p.ErrorProb
		if p.AbandonProb >= 0 {
			abnP = p.AbandonProb
		}
		if p.Saboteur {
			flags |= hfSaboteur
		}
		if p.Diurnal {
			flags |= hfDiurnal
			slot.onlineSpan = p.OnlineHours * sim.Hour
			if slot.onlineSpan <= 0 {
				slot.onlineSpan = DefaultOnlineHours * sim.Hour
			}
			if slot.onlineSpan > sim.Day {
				slot.onlineSpan = sim.Day
			}
			slot.phase = slot.src.Float64() * sim.Day
		}
	}
	slot.errorProb, slot.abandonProb, slot.flags = errP, abnP, flags
	slot.dec = computeDecision(&slot.src, errP, abnP, cfg.LateReturnProb, false, flags&hfSaboteur != 0)
}

// spawn consumes one precomputed slot (or builds one inline after a pool
// underrun — same seed stream, same bits) and appends the host to every
// plane array, applying the join-time hardware-trend scaling (devices
// joining later are faster, §5.1). On a multiplexed fleet it also arms the
// host's mux columns. Runs in the serial merge only.
func (k *ShardKernel) spawn() int32 {
	var slot spawnSlot
	if k.poolHead < len(k.pool) {
		slot = k.pool[k.poolHead]
		k.poolHead++
	} else {
		k.buildSlot(&slot, k.r.Uint64())
		if k.mux != nil {
			slot.portSeed = k.r.Uint64()
		}
	}
	now := k.eng.Now()
	sd := slot.rawSD
	if k.cfg.HardwareTrendPerWeek > 0 {
		sd /= 1 + k.cfg.HardwareTrendPerWeek*now/sim.Week
	}
	if sd < 1 {
		sd = 1 // a volunteer device cannot beat its own wall clock
	}
	hw := sd / (UDThrottleFactor * PriorityFactor)
	if hw < 1 {
		hw = 1
	}
	id := int32(len(k.speedDown))
	k.flags = append(k.flags, slot.flags)
	k.speedDown = append(k.speedDown, sd)
	k.src = append(k.src, slot.src)
	k.dec = append(k.dec, slot.dec)
	k.errorProb = append(k.errorProb, slot.errorProb)
	k.abandonProb = append(k.abandonProb, slot.abandonProb)
	k.phase = append(k.phase, slot.phase)
	k.onlineSpan = append(k.onlineSpan, slot.onlineSpan)
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
	if k.mux != nil {
		k.mux.arm(int(id), slot.portSeed)
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

// fetch is the host's fetch-compute-report step: refill the work cache,
// start the front assignment, consume the precomputed decision transcript
// (or draw it inline when the prefetch fell a task behind), and schedule
// the continuation on the shard calendar. Runs in the serial merge only.
func (k *ShardKernel) fetch(h int32) {
	if k.flags[h]&hfStopped != 0 {
		return
	}
	base := int(h) * k.buffer
	n := int(k.cacheLen[h])
	for n < k.buffer {
		a := k.requestWork(h)
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
			// attempt), so shard order is irrelevant.
			d = k.retry.FetchRetryDelay(int(h), d)
		}
		k.scheduleHostEvent(h, evFetch, k.eng.Now()+d)
		return
	}
	if k.flags[h]&hfBusy != 0 {
		return // already crunching; the cache refill was all we needed
	}
	a := k.cache[base]
	copy(k.cache[base:base+n-1], k.cache[base+1:base+n])
	k.cache[base+n-1] = nil
	k.cacheLen[h] = int32(n - 1)
	k.flags[h] |= hfBusy
	wall := a.WU.WU.RefSeconds * k.speedDown[h]
	reported := wall
	if k.cfg.Accounting == BOINCCPUTime {
		reported = a.WU.WU.RefSeconds * k.hardware[h]
	}

	d := k.dec[h]
	if d.flags&dValid == 0 {
		// Second task inside one window: the refill has not run yet, so
		// draw the transcript inline. The host is already on the refill
		// list from the consume that emptied the tuple.
		d = computeDecision(&k.src[h], k.errorProb[h], k.abandonProb[h],
			k.cfg.LateReturnProb, k.flags[h]&hfTurned != 0, k.flags[h]&hfSaboteur != 0)
	} else {
		// First consume this window: queue the host for the parallel
		// refill at the next window barrier.
		c := &k.cals[int(h)%k.shards]
		c.refill = append(c.refill, h)
	}
	k.dec[h].flags = 0

	if d.flags&dAbandon != 0 {
		if d.flags&dLate != 0 {
			delay := k.deadlineFor(a) + d.lateFrac*k.cfg.LateDelayMax
			k.scheduleLate(h, k.eng.Now()+delay, a, reported)
		}
		k.flags[h] &^= hfBusy
		k.scheduleHostEvent(h, evFetch, k.eng.Now()+k.cfg.IdleRetry)
		return
	}

	k.cur[h] = a
	k.curReported[h] = reported
	k.curOutcome[h] = wcg.OutcomeValid
	if d.flags&dErr != 0 {
		k.curOutcome[h] = wcg.OutcomeInvalid
		if d.flags&dTurns != 0 {
			k.flags[h] |= hfTurned
			if k.cfg.OnSaboteurTurn != nil {
				k.cfg.OnSaboteurTurn(int(h), k.eng.Now())
			}
		}
	}
	delay := wall
	if k.flags[h]&hfDiurnal != 0 {
		delay = diurnalDelay(k.eng.Now(), wall, k.phase[h], k.onlineSpan[h])
	}
	k.scheduleHostEvent(h, evDone, k.eng.Now()+delay)
}

// taskDone reports the finished task and fetches the next one.
func (k *ShardKernel) taskDone(h int32) {
	a, outcome, reported := k.cur[h], k.curOutcome[h], k.curReported[h]
	k.cur[h] = nil
	k.flags[h] &^= hfBusy
	k.done[h]++
	k.cpuSpent[h] += reported
	k.complete(a, outcome, reported, h)
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
	k.complete(a, oc, reported, h)
}
