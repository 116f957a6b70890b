package cpu

// Per-cycle reference for the ROB half of the timing core, kept verbatim
// in behaviour from the original cycle loop: completion cycles sit in a
// ring, a retire stage pops up to RetireWidth completed instructions from
// its head every cycle, and the quiescent fast-forward stops at the ROB
// head's completion. The production loop fixes each instruction's retire
// cycle in closed form at dispatch instead; diff_test.go drives both over
// the same programs and configurations and requires identical Results.

// refSim runs the embedded Simulator's front end (prefetch completion,
// run-ahead, demand access) under the reference ROB. The embedded rob,
// lastRet and lastRetN fields are left unused.
type refSim struct {
	*Simulator
	ring    []int64 // completion cycles
	ringHd  int
	ringLen int
}

func newRefSim(s *Simulator) *refSim {
	return &refSim{Simulator: s, ring: make([]int64, s.cfg.ROB)}
}

// run mirrors Simulator.Run.
func (r *refSim) run(warmupInstrs int64) Result {
	s := r.Simulator
	s.warmupInstrs = warmupInstrs
	s.warmupTaken = warmupInstrs <= 0
	n := s.prog.Len()
	for s.fetchIdx < n || r.ringLen > 0 {
		r.step()
		if !s.warmupTaken && s.instructions >= s.warmupInstrs {
			s.wCycles, s.wInstr, s.wBlocks = s.cycle, s.instructions, s.accessIdx
			s.wMiss, s.wLate, s.wPf = s.demandMisses, s.lateMisses, s.prefetches
			s.wIStall, s.wRStall = s.imissStall, s.redirectStall
			s.wSampled = s.sampledAccesses
			s.warmupTaken = true
		}
		if s.cycle < s.stallUntil &&
			(r.ringLen == 0 || r.ring[r.ringHd] > s.cycle) &&
			(len(s.pfInFlight) == 0 || s.pfNextReady > s.cycle) {
			gated := !s.cfg.UseFDP || s.fetchIdx >= n || s.runIdx >= n ||
				(s.blockedAt >= 0 && s.fetchIdx <= s.blockedAt) ||
				s.runAccesses-s.accessIdx >= int64(s.cfg.FTQBlocks)
			if gated {
				target := s.stallUntil
				if r.ringLen > 0 && r.ring[r.ringHd] < target {
					target = r.ring[r.ringHd]
				}
				if len(s.pfInFlight) > 0 && s.pfNextReady < target {
					target = s.pfNextReady
				}
				if skipped := target - s.cycle; skipped > 0 {
					s.cycle = target
					if s.stallIsMiss {
						s.imissStall += skipped
					} else {
						s.redirectStall += skipped
					}
				}
			}
		}
	}
	return s.result()
}

func (r *refSim) step() {
	s := r.Simulator
	r.retire()
	s.completePrefetches()
	if s.cfg.UseFDP && s.fetchIdx < s.prog.Len() {
		s.runAhead()
	}
	r.fetch()
	s.cycle++
}

// retire pops completed instructions from the ROB head.
func (r *refSim) retire() {
	for k := 0; k < r.cfg.RetireWidth && r.ringLen > 0; k++ {
		if r.ring[r.ringHd] > r.cycle {
			return
		}
		r.ringHd++
		if r.ringHd == len(r.ring) {
			r.ringHd = 0
		}
		r.ringLen--
	}
}

// fetch supplies up to FetchWidth instructions into the ROB.
func (r *refSim) fetch() {
	s := r.Simulator
	if s.cycle < s.stallUntil {
		if s.stallIsMiss {
			s.imissStall++
		} else {
			s.redirectStall++
		}
		return
	}
	desc := s.prog.Desc
	for f := 0; f < s.cfg.FetchWidth; f++ {
		if s.fetchIdx >= len(desc) || r.ringLen >= len(r.ring) {
			return
		}
		d := desc[s.fetchIdx]
		if d&descNewBlock != 0 {
			if s.retrying {
				s.retrying = false
			} else if !s.demandAccess(s.prog.Blocks[s.accessIdx]) {
				s.retrying = true
				return
			}
		}
		completion := s.cycle + s.cfg.PipelineDepth
		if d&descLoad != 0 {
			completion += int64(s.prog.DataLat[s.fetchIdx])
		}
		tail := r.ringHd + r.ringLen
		if tail >= len(r.ring) {
			tail -= len(r.ring)
		}
		r.ring[tail] = completion
		r.ringLen++
		s.instructions++
		s.fetchIdx++
		if d&(descMispredict|descMisfetch) != 0 {
			if d&descMispredict != 0 {
				s.stallUntil = s.cycle + s.cfg.MispredictPenalty
			} else {
				s.stallUntil = s.cycle + s.cfg.MisfetchPenalty
			}
			s.stallIsMiss = false
			return
		}
		if d&descGroupEnd != 0 {
			return
		}
	}
}
