package cpu

import (
	"fmt"
	"slices"

	"acic/internal/branch"
	"acic/internal/mem"
	"acic/internal/trace"
)

// NewProgramFromParts reassembles a Program of n instructions from
// persisted artifacts: the trace plus the annotation, descriptor, and
// collapsed-block arrays that NewProgram derives (trace codec v2 sections
// ANNO/DESC/BLKS). Only the cheap purely-local state — the per-instruction
// data-block array and the run-ahead event bitmap — is recomputed; the
// expensive branch-predictor replay behind ann and the descriptor pass are
// skipped. tr.Insts is either the n decoded records or nil: a Program
// without them has no MemBlk, so its data-side timeline must be adopted
// (AdoptDataLatencies), not replayed. The parts are validated against n
// (lengths, block count, event bits, annotations that agree with the
// descriptors' redirect bits, and descriptors free of level bits, which
// DescBytes masks out) so a mismatched or stale artifact fails here
// and the caller regenerates instead of simulating garbage.
func NewProgramFromParts(tr *trace.Trace, n int, ann []branch.Annotation, desc []uint8, blocks []uint64) (*Program, error) {
	if tr.Insts != nil && len(tr.Insts) != n {
		return nil, fmt.Errorf("cpu: trace length %d != instruction count %d", len(tr.Insts), n)
	}
	if len(ann) != n {
		return nil, fmt.Errorf("cpu: annotation length %d != trace length %d", len(ann), n)
	}
	if len(desc) != n {
		return nil, fmt.Errorf("cpu: descriptor length %d != trace length %d", len(desc), n)
	}
	p := &Program{
		Trace:     tr,
		Ann:       ann,
		Desc:      desc,
		Blocks:    blocks,
		runEvents: make([]uint64, (n+63)/64+1),
	}
	if tr.Insts != nil {
		p.MemBlk = make([]uint64, n)
	}
	nblocks := 0
	for i, d := range desc {
		if d&descLevel != 0 {
			return nil, fmt.Errorf("cpu: descriptor %d carries data-level bits %#x", i, d&descLevel)
		}
		if ann[i].Redirect != descRedirect(d) {
			return nil, fmt.Errorf("cpu: annotation %d redirect %d, descriptor says %d", i, ann[i].Redirect, descRedirect(d))
		}
		if p.MemBlk != nil && tr.Insts[i].Class.IsMem() {
			p.MemBlk[i] = trace.Block(tr.Insts[i].MemAddr)
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

// AnnotationBytes appends the ANNO artifact section's payload to dst: one
// branch.Redirect byte per instruction, read from the descriptors'
// redirect bits, so a Program without Ann (a ProgramBuilder's) writes the
// bytes its annotations would.
func (p *Program) AnnotationBytes(dst []byte) []byte {
	dst = slices.Grow(dst, len(p.Desc))
	for _, d := range p.Desc {
		dst = append(dst, byte(descRedirect(d)))
	}
	return dst
}

// DataLatBytes appends the DLAT artifact section's payload to dst: the
// trace.EncodeInt16s encoding of the data-side latency timeline, read from
// the descriptors' level bits (levelLat of a load's or store's level, 0
// elsewhere), so a Program without DataLat writes the bytes its timeline
// would. The timeline must be installed (EnsureDataLatencies,
// AdoptDataLatencies or ProgramBuilder).
func (p *Program) DataLatBytes(dst []byte) []byte {
	return trace.AppendInt16s(dst, len(p.Desc), func(i int) int16 {
		if d := p.Desc[i]; d&(descLoad|descStore) != 0 {
			return int16(p.levelLat[d>>descLevelShift])
		}
		return 0
	})
}

// AnnotationsFromBytes rebuilds the annotation array from an ANNO payload.
func AnnotationsFromBytes(data []byte) ([]branch.Annotation, error) {
	out := make([]branch.Annotation, len(data))
	for i, b := range data {
		r := branch.Redirect(b)
		if r > branch.RedirectMispredict {
			return nil, fmt.Errorf("cpu: annotation %d: bad redirect %d", i, b)
		}
		out[i].Redirect = r
	}
	return out, nil
}

// AdoptDataLatencies installs a precomputed data-side latency timeline
// (from the workload artifact store) instead of replaying the data
// hierarchy, writing each memory instruction's data level into its
// descriptor. Adopting after the timeline was already computed (or
// adopted) under the same config is a no-op; a different config panics
// exactly like EnsureDataLatencies. A timeline that cfg could not have
// produced — the wrong length, a memory instruction whose latency is no
// level's, or a nonzero latency on any other instruction — is rejected
// before installation so a stale artifact cannot poison the Program. When
// two levels share a latency, the first in lookup order is recorded; the
// latency the simulator reads is the same either way.
func (p *Program) AdoptDataLatencies(lat []int16, cfg mem.Config) error {
	if len(lat) != len(p.Desc) {
		return fmt.Errorf("cpu: data-latency timeline length %d != program length %d", len(lat), len(p.Desc))
	}
	table := levelTable(cfg)
	levelOf := func(v int16) (mem.Level, bool) {
		for l, t := range table {
			if int64(v) == t {
				return mem.Level(l), true
			}
		}
		return 0, false
	}
	for i, d := range p.Desc {
		if d&(descLoad|descStore) == 0 {
			if lat[i] != 0 {
				return fmt.Errorf("cpu: data latency %d on non-memory instruction %d", lat[i], i)
			}
		} else if _, ok := levelOf(lat[i]); !ok {
			return fmt.Errorf("cpu: data latency %d at instruction %d is no level's latency %v", lat[i], i, table)
		}
	}
	p.dataLatOnce.Do(func() {
		p.setDataConfig(cfg)
		for i, d := range p.Desc {
			if d&(descLoad|descStore) != 0 {
				l, _ := levelOf(lat[i])
				p.Desc[i] = withLevel(d, l)
			}
		}
		p.DataLat = lat
	})
	p.checkDataConfig(cfg)
	return nil
}
