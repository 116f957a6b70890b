package cpu

import (
	"fmt"

	"acic/internal/branch"
	"acic/internal/mem"
	"acic/internal/trace"
)

// NewProgramFromParts reassembles a Program of n instructions from a
// workload artifact: the descriptor bytes as a Program holds them (DESC,
// data-level bits included) and the collapsed block-access sequence
// (BLKS). The expensive branch-predictor replay behind the redirect bits
// and the data-hierarchy replay behind the level bits are skipped: the
// levels are installed under cfg, as EnsureDataLatencies would install
// them, and only the run-ahead event bitmap is recomputed.
//
// tr.Insts is either the n decoded records or nil. With them the Program
// also carries every array NewProgram and EnsureDataLatencies build: Ann
// and DataLat read off the descriptors' redirect and level bits, and
// MemBlk from the records. Without them it carries only what a simulation
// reads.
//
// The parts are validated against n (lengths, block count, and level bits
// on no instruction but a load or store) so a mismatched or stale
// artifact fails here and the caller regenerates instead of simulating
// garbage.
func NewProgramFromParts(tr *trace.Trace, n int, desc []uint8, blocks []uint64, cfg mem.Config) (*Program, error) {
	if tr.Insts != nil && len(tr.Insts) != n {
		return nil, fmt.Errorf("cpu: trace length %d != instruction count %d", len(tr.Insts), n)
	}
	if len(desc) != n {
		return nil, fmt.Errorf("cpu: descriptor length %d != trace length %d", len(desc), n)
	}
	p := &Program{
		Trace:     tr,
		Desc:      desc,
		Blocks:    blocks,
		runEvents: make([]uint64, (n+63)/64+1),
	}
	p.dataLatOnce.Do(func() { p.setDataConfig(cfg) })
	if tr.Insts != nil {
		p.Ann = make([]branch.Annotation, n)
		p.MemBlk = make([]uint64, n)
		p.DataLat = make([]int16, n)
	}
	nblocks := 0
	for i, d := range desc {
		isMem := d&(descLoad|descStore) != 0
		if d&descLevel != 0 && !isMem {
			return nil, fmt.Errorf("cpu: descriptor %d carries data-level bits %#x on a non-memory instruction", i, d&descLevel)
		}
		if tr.Insts != nil {
			p.Ann[i].Redirect = descRedirect(d)
			if tr.Insts[i].Class.IsMem() {
				p.MemBlk[i] = trace.Block(tr.Insts[i].MemAddr)
			}
			if isMem {
				p.DataLat[i] = int16(p.levelLat[d>>descLevelShift])
			}
		}
		if d&descNewBlock != 0 {
			nblocks++
		}
		if d&descRunEvent != 0 {
			p.runEvents[i>>6] |= 1 << uint(i&63)
		}
	}
	if nblocks != len(blocks) {
		return nil, fmt.Errorf("cpu: descriptor stream opens %d blocks, artifact carries %d", nblocks, len(blocks))
	}
	return p, nil
}
