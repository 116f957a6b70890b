// Set-sampled fast lane (SDM-style sampled simulation).
//
// The reference simulation advances one core cycle at a time. With set
// sampling enabled, almost every cycle is uneventful — only 1-in-stride
// demand accesses touch the i-cache subsystem, the rest are presumed hits
// — so the per-cycle walk (prefetch-fill check, run-ahead tick,
// fetch-slot loop) is pure overhead. The sampled lane therefore visits
// only the instructions that can change observable state, over a
// per-workload index built once and shared by every scheme cell:
//
//   - samplePace: the cumulative fetch-slot prefix with fetch-group
//     roundups and redirect penalties baked in, so "what cycle does
//     instruction k fetch at" is one add and one divide from the current
//     pace base; a fill stall just rebases. Between stalls this
//     reproduces the reference's FetchWidth-per-cycle, group-at-a-time
//     pacing to within one cycle per stretch.
//   - sampleAccK/sampleAccA: the sampled-constituency accesses (cached
//     per filter), the walk's primary cursor. Non-sampled accesses are
//     never visited — their consumption timestamps, when the FTQ window
//     lookback needs one, are reconstructed exactly from the pace prefix
//     plus a short history of pace rebases.
//   - sampleEvents: redirects (which block the FDP stream and carry the
//     stall statistic; their fetch-pacing cost is baked into samplePace)
//     and the long-latency loads whose completion spikes can back up the
//     ROB. Spikes drive the retire chain — the exact in-order
//     RetireWidth-wide drain bound — which gates fetch at ROB distance
//     and sets the final drain; short loads retire inside the fetch
//     shadow and are left out.
//
// FDP is emulated per sampled block instead of walked per cycle: the
// fetch-target-queue window "reaches" access a when access a-FTQBlocks is
// consumed, a prefetch cannot start before the last front-end redirect
// resolves, and the sampled-scaled L2 port and MSHR pool serialize issues
// exactly as the reference's per-cycle budget does. Demand misses then
// charge full or residual (late prefetch) fill latency like the
// reference demandAccess.
//
// The sampled lane is a deliberate approximation with measured error
// bars (DESIGN.md §10; `acic-bench -sample-validate` regenerates them).
// The full-simulation path never enters this file and stays
// byte-identical to the reference loop.
package cpu

import (
	"math/bits"
	"sort"

	"acic/internal/cache"
)

// bigLoadLat is the data-load latency (cycles) from which a completion
// spike can back up the ROB: the spike must outlast the ROB/RetireWidth
// cycles (≈59 at Table II geometry) the in-order drain needs to fall a
// full ROB behind, minus the pipeline depth already counted. Shorter
// loads drain inside the fetch shadow and are left out of the event
// index (they are the L1D/L2 hit classes; 48 cleanly separates them from
// the L3-and-beyond latencies that matter).
const bigLoadLat = 48

// rebaseRing bounds the pace-rebase history. Rebases happen only at
// sampled-access stalls and at most a few sampled accesses fit in one
// FTQBlocks lookback window, so 8 entries always cover it.
const rebaseRing = 8

// ensureSampleIndex builds the sampled lane's shared per-workload index
// (pace prefix, redirect/big-load event bitmap, access→instruction map)
// once. The pacing is quantized to the given fetch width and the
// redirect penalties are baked in as whole-cycle gaps, so a front-end
// redirect costs the runtime loop only its stall-statistics bookkeeping.
// Concurrent scheme cells share one build; the parameters must match
// every sharing simulator's Config (platformConfig never varies them).
func (p *Program) ensureSampleIndex(width int, mispredict, misfetch int64) {
	p.sampleOnce.Do(func() {
		n := len(p.Desc)
		// The pace prefix is int64: it grows ~1 slot per instruction plus
		// (penalty-1)*width per redirect, which overflows int32 from
		// roughly half-billion-instruction traces — paper-scale -n values.
		pace := make([]int64, n+1)
		ev := make([]uint64, (n+63)/64+1)
		accInstr := make([]int32, 0, len(p.Blocks))
		var pc int64
		w := int64(width)
		for i, d := range p.Desc {
			pace[i] = pc
			pc++
			if d&(descGroupEnd|descMispredict|descMisfetch) != 0 {
				// Group end or redirect: the rest of the fetch cycle is
				// wasted, and a redirect additionally charges its penalty
				// as whole lost cycles.
				if r := pc % w; r != 0 {
					pc += w - r
				}
				switch {
				case d&descMispredict != 0:
					pc += (mispredict - 1) * w
					ev[i>>6] |= 1 << uint(i&63)
				case d&descMisfetch != 0:
					pc += (misfetch - 1) * w
					ev[i>>6] |= 1 << uint(i&63)
				}
			}
			if d&descNewBlock != 0 {
				accInstr = append(accInstr, int32(i))
			}
			if d&descLoad != 0 && p.levelLat[d>>descLevelShift] >= bigLoadLat {
				ev[i>>6] |= 1 << uint(i&63)
			}
		}
		pace[n] = pc
		p.samplePace, p.sampleEvents, p.sampleAccInstr = pace, ev, accInstr
	})
}

// sampledAccessList returns (and caches) the accesses of one constituency
// filter: instruction index and access index per sampled access. One
// suite run uses one filter, so the cache holds a single entry.
func (p *Program) sampledAccessList(f cache.SampleFilter) (saK, saA []int32) {
	p.sampleListMu.Lock()
	defer p.sampleListMu.Unlock()
	if p.sampleAccK != nil && p.sampleListFilter == f {
		return p.sampleAccK, p.sampleAccA
	}
	k := make([]int32, 0, len(p.Blocks)/f.Stride()+1)
	a := make([]int32, 0, cap(k))
	for i, b := range p.Blocks {
		if f.Sampled(b) {
			k = append(k, p.sampleAccInstr[i])
			a = append(a, int32(i))
		}
	}
	p.sampleListFilter, p.sampleAccK, p.sampleAccA = f, k, a
	return k, a
}

// nextSampleEvent returns the smallest redirect/big-load event index
// >= i, or n when none remains before n.
func (p *Program) nextSampleEvent(i, n int) int {
	w := i >> 6
	word := p.sampleEvents[w] & (^uint64(0) << uint(i&63))
	for word == 0 {
		w++
		if w >= len(p.sampleEvents) {
			return n
		}
		word = p.sampleEvents[w]
	}
	if j := w<<6 + bits.TrailingZeros64(word); j < n {
		return j
	}
	return n
}

// fcAt returns the fetch cycle of instruction k under the current pace
// base (valid for instructions at or after the last stall).
func (s *Simulator) fcAt(k int) int64 {
	return (s.paceBase + s.prog.samplePace[k]) / int64(s.cfg.FetchWidth)
}

// setFetchCycle rebases pacing so instruction k fetches at cycle c with a
// fresh fetch group (what the reference does when a stall ends),
// recording the outgoing base in the rebase history.
func (s *Simulator) setFetchCycle(k int, c int64) {
	s.rebPos = (s.rebPos + 1) % rebaseRing
	s.rebIdx[s.rebPos], s.rebVal[s.rebPos] = int32(k), s.paceBase
	s.paceBase = c*int64(s.cfg.FetchWidth) - s.prog.samplePace[k]
	s.cycle = c
}

// paceSlotAt reconstructs the pace slot instruction j was fetched at,
// consulting the rebase history when j predates the current base. The
// history always covers the FTQ lookback exactly; anything older falls
// back to the oldest recorded base (initial entries are the zero base).
func (s *Simulator) paceSlotAt(j int32) int64 {
	pace := s.prog.samplePace[j]
	if s.rebIdx[s.rebPos] <= j {
		return s.paceBase + pace
	}
	for i := 1; i < rebaseRing; i++ {
		p := (s.rebPos - i + rebaseRing) % rebaseRing
		if s.rebIdx[p] <= j {
			return s.rebVal[(s.rebPos-i+1+rebaseRing)%rebaseRing] + pace
		}
	}
	return s.rebVal[(s.rebPos+1)%rebaseRing] + pace
}

// accessCountAt returns how many block accesses start before instruction
// k (the exact accessIdx at an instruction boundary).
func (s *Simulator) accessCountAt(k int) int64 {
	ai := s.prog.sampleAccInstr
	return int64(sort.Search(len(ai), func(i int) bool { return ai[i] >= int32(k) }))
}

// runSampled is the sampled-lane run: it walks the program to its end,
// then charges the final ROB drain.
func (s *Simulator) runSampled() {
	n := s.prog.Len()
	for s.fetchIdx < n {
		seg := n
		if !s.warmupTaken && s.warmupInstrs < int64(seg) {
			seg = max(int(s.warmupInstrs), s.fetchIdx)
		}
		s.sampledWalk(seg)
		if !s.warmupTaken && int64(s.fetchIdx) >= s.warmupInstrs {
			s.wCycles, s.wInstr, s.wBlocks = s.fcAt(s.fetchIdx), s.instructions, s.accessIdx
			s.wMiss, s.wLate, s.wPf = s.demandMisses, s.lateMisses, s.prefetches
			s.wIStall, s.wRStall = s.imissStall, s.redirectStall
			s.wSampled = s.sampledAccesses
			s.warmupTaken = true
		}
	}
	// Drain: the run ends one cycle after the last instruction retires —
	// the later of its own pipeline completion and the retire chain
	// emptying the ROB behind the last big spike.
	end := s.fcAt(n-1) + s.cfg.PipelineDepth
	rw := int64(s.cfg.RetireWidth)
	if chain := (s.vtRetire6 + int64(n-1-s.vtIdx) + rw - 1) / rw; chain > end {
		end = chain
	}
	s.cycle = end + 1
}

// sampledWalk merges the two event streams — the sampled-access list and
// the redirect/big-load bitmap — in instruction order up to seg, then
// advances the fetch pointer; everything in between is pace-only.
func (s *Simulator) sampledWalk(seg int) {
	prog := s.prog
	kb := prog.nextSampleEvent(s.fetchIdx, seg)
	for {
		ka := seg
		if s.saCursor < len(s.saK) {
			if v := int(s.saK[s.saCursor]); v < seg {
				ka = v
			}
		}
		if ka >= seg && kb >= seg {
			break
		}
		if ka <= kb {
			a := int64(s.saA[s.saCursor])
			s.saCursor++
			s.sampledDemand(ka, a)
			if ka == kb {
				s.handleSampledEvent(kb)
				kb = prog.nextSampleEvent(kb+1, seg)
			}
		} else {
			s.handleSampledEvent(kb)
			kb = prog.nextSampleEvent(kb+1, seg)
		}
	}
	s.fetchIdx = seg
	s.instructions = int64(seg)
	s.accessIdx = s.accessCountAt(seg)
}

// handleSampledEvent applies one redirect or big-load event.
func (s *Simulator) handleSampledEvent(k int) {
	d := s.prog.Desc[k]
	if k >= s.gateIdx {
		s.robGate(k)
	}
	if lat := s.levelLat[d>>descLevelShift]; d&descLoad != 0 && lat >= bigLoadLat {
		// Completion in retire-slot units, computed straight from the pace
		// slot: fetch and retire widths coincide (Table II), so the pace
		// coordinate doubles as the retire coordinate to within one cycle
		// — the chain only feeds the rare gate and the final drain.
		c6 := s.paceBase + s.prog.samplePace[k] +
			(s.cfg.PipelineDepth+lat)*int64(s.cfg.RetireWidth)
		if chain := s.vtRetire6 + int64(k-s.vtIdx); c6 > chain {
			s.vtRetire6, s.vtIdx = c6, k
			s.gateIdx = k + s.cfg.ROB
		}
	}
	if d&(descMispredict|descMisfetch) != 0 {
		// The fetch-pacing cost is baked into the pace prefix; what is
		// left is the stall statistic and the run-ahead stream blocking —
		// the stream cannot issue past a branch the front end will get
		// wrong, and resumes the cycle after fetch passes it.
		s.lastRedirect = s.paceBase + s.prog.samplePace[k] + int64(s.cfg.FetchWidth)
		if d&descMispredict != 0 {
			s.redirectStall += s.cfg.MispredictPenalty - 1
		} else {
			s.redirectStall += s.cfg.MisfetchPenalty - 1
		}
	}
}

// robGate applies the one-shot ROB-full check: the gate can only start
// binding a full ROB after the chain anchor, and once fetch is past (or
// level with) the drain they advance at the same width, so a single
// adjustment suffices.
func (s *Simulator) robGate(k int) {
	s.gateIdx = maxInt
	rw := int64(s.cfg.RetireWidth)
	gate := (s.vtRetire6 + int64(k-s.cfg.ROB-s.vtIdx) + rw - 1) / rw
	if gate > s.fcAt(k) {
		s.setFetchCycle(k, gate)
	}
}

// sampledDemand consumes the sampled block access a starting at
// instruction k: it emulates the FDP prefetch the block received when
// the run-ahead window reached it, drives the subsystem, and charges
// fill stalls like the reference demandAccess.
func (s *Simulator) sampledDemand(k int, a int64) {
	if k >= s.gateIdx {
		s.robGate(k)
	}
	s.accessIdx = a + 1
	s.sampledAccesses++
	b := s.prog.Blocks[a]
	six := s.paceBase + s.prog.samplePace[k]
	cycle := six / int64(s.cfg.FetchWidth)
	s.cycle = cycle
	if len(s.pfInFlight) > 0 {
		// Extra-prefetcher fills (non-FDP platforms) land through the
		// pending list, exactly when their latency has elapsed.
		s.installReadyPrefetches()
	}
	if readyAt, pending := s.prefetchPending(b); pending {
		// Late extra prefetch: install it now, charge the residual.
		s.removeInFlight(b)
		s.sub.PrefetchFill(b, a, cycle)
		s.sub.Fetch(b, a, cycle)
		s.demandMisses++
		s.lateMisses++
		s.sampledExtraPrefetch(b, true)
		if readyAt > cycle {
			s.imissStall += readyAt - cycle - 1
			s.setFetchCycle(k, readyAt)
		}
		return
	}
	if s.cfg.UseFDP && !s.sub.Contains(b) {
		// FDP covers every upcoming fetch block: the window reached this
		// access when access a-FTQBlocks was consumed.
		issue := six
		if back := a - int64(s.cfg.FTQBlocks); back >= 0 {
			issue = s.paceSlotAt(s.prog.sampleAccInstr[back])
		}
		issue /= int64(s.cfg.FetchWidth)
		if lr := s.lastRedirect / int64(s.cfg.FetchWidth); lr > issue {
			issue = lr
		}
		kept := s.mshr[:0]
		for _, r := range s.mshr {
			if r > issue {
				kept = append(kept, r)
			}
		}
		s.mshr = kept
		if len(s.mshr) >= s.cfg.MaxPrefetches {
			// All (sampled-scaled) MSHRs busy: the stream waits for the
			// earliest fill and reuses its slot.
			earliest := 0
			for i, r := range s.mshr {
				if r < s.mshr[earliest] {
					earliest = i
				}
			}
			if s.mshr[earliest] > issue {
				issue = s.mshr[earliest]
			}
			s.mshr[earliest] = s.mshr[len(s.mshr)-1]
			s.mshr = s.mshr[:len(s.mshr)-1]
		}
		start := issue
		if s.l2NextFree > start {
			start = s.l2NextFree
		}
		s.l2NextFree = start + s.cfg.L2ServiceInterval
		readyAt := start + s.hier.InstrMiss(b)
		s.mshr = append(s.mshr, readyAt)
		s.prefetches++
		s.sub.PrefetchFill(b, a, cycle)
		if readyAt > cycle {
			// Late prefetch, like the reference: residual latency only.
			s.sub.Fetch(b, a, cycle)
			s.demandMisses++
			s.lateMisses++
			s.sampledExtraPrefetch(b, true)
			s.imissStall += readyAt - cycle - 1
			s.setFetchCycle(k, readyAt)
			return
		}
		// Timely fill. The demand still misses when the scheme's
		// admission path dropped the fill — then it pays full latency.
		if s.sub.Fetch(b, a, cycle) {
			s.sampledExtraPrefetch(b, false)
			return
		}
		s.sampledMiss(b, k, cycle)
		return
	}
	if s.sub.Fetch(b, a, cycle) {
		s.sampledExtraPrefetch(b, false)
		return
	}
	s.sampledMiss(b, k, cycle)
}

// sampledMiss charges a full demand fill through the (sampled-scaled) L2
// port, exactly like the reference miss path.
func (s *Simulator) sampledMiss(b uint64, k int, cycle int64) {
	s.demandMisses++
	ready := s.instrFillReady(b)
	s.sampledExtraPrefetch(b, true)
	s.imissStall += ready - cycle - 1
	s.setFetchCycle(k, ready)
}

// sampledIssuePrefetch starts an extra-prefetcher fill for a sampled
// block unless redundant; false means the MSHRs are full.
func (s *Simulator) sampledIssuePrefetch(block uint64) bool {
	if len(s.pfInFlight) >= s.cfg.MaxPrefetches {
		return false
	}
	if s.sub.Contains(block) {
		return true
	}
	if _, pending := s.prefetchPending(block); pending {
		return true
	}
	readyAt := s.instrFillReady(block)
	if len(s.pfInFlight) == 0 || readyAt < s.pfNextReady {
		s.pfNextReady = readyAt
	}
	s.pfInFlight = append(s.pfInFlight, inflight{block: block, readyAt: readyAt})
	s.prefetches++
	return true
}

// installReadyPrefetches completes pending extra-prefetcher fills whose
// latency has elapsed. The sampled lane needs them only when a demand
// access is about to probe the subsystem, so it runs there instead of
// every cycle.
func (s *Simulator) installReadyPrefetches() {
	if s.cycle < s.pfNextReady {
		return
	}
	kept := s.pfInFlight[:0]
	nextReady := int64(1)<<62 - 1
	for _, pf := range s.pfInFlight {
		if pf.readyAt <= s.cycle {
			s.sub.PrefetchFill(pf.block, s.accessIdx, s.cycle)
		} else {
			if pf.readyAt < nextReady {
				nextReady = pf.readyAt
			}
			kept = append(kept, pf)
		}
	}
	s.pfInFlight = kept
	s.pfNextReady = nextReady
}

// sampledExtraPrefetch drives the optional table prefetcher on the
// sampled access stream, issuing its sampled-constituency candidates.
func (s *Simulator) sampledExtraPrefetch(block uint64, miss bool) {
	if s.cfg.Extra == nil {
		return
	}
	s.pfScratch = s.cfg.Extra.OnAccess(block, s.cycle, miss, s.pfScratch[:0])
	for _, c := range s.pfScratch {
		if c&s.sampleMask == s.sampleMatch {
			s.sampledIssuePrefetch(c)
		}
	}
}
