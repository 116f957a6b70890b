package cpu

import (
	"encoding/binary"
	"fmt"
	"slices"

	"acic/internal/branch"
	"acic/internal/mem"
	"acic/internal/trace"
)

// NewProgramFromParts reassembles a Program of n instructions from
// persisted artifacts: the trace plus the ANNO payload (one
// branch.Redirect byte per instruction), the descriptor and the
// collapsed-block arrays that NewProgram derives (trace codec v2 sections
// ANNO/DESC/BLKS). Only the cheap purely-local state — the per-instruction
// data-block array and the run-ahead event bitmap — is recomputed; the
// expensive branch-predictor replay behind the annotations and the
// descriptor pass are skipped. tr.Insts is either the n decoded records
// or nil: a Program without them has no MemBlk, so its data-side timeline
// must be adopted (AdoptDataLatencies), not replayed. The parts are
// validated against n (lengths, block count, event bits, annotation bytes
// that agree with the descriptors' redirect bits, and descriptors free of
// level bits, which DescBytes masks out) so a mismatched or stale
// artifact fails here and the caller regenerates instead of simulating
// garbage. The annotations are checked in place, not kept: the
// descriptors carry the redirects, and a caller that wants the Ann array
// builds it with AnnotationsFromBytes.
func NewProgramFromParts(tr *trace.Trace, n int, ann []byte, desc []uint8, blocks []uint64) (*Program, error) {
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
		if r := descRedirect(d); ann[i] != byte(r) {
			return nil, fmt.Errorf("cpu: annotation %d redirect %d, descriptor says %d", i, ann[i], r)
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
// (the DLAT payload of the workload artifact store, trace.EncodeInt16s)
// instead of replaying the data hierarchy, writing each memory
// instruction's data level into its descriptor. The payload is read in
// place and the timeline is not kept: the descriptors' level bits are
// what the simulator reads, and a caller that wants DataLat decodes it
// (trace.DecodeInt16s). Adopting after the timeline was already computed
// (or adopted) under the same config is a no-op; a different config
// panics exactly like EnsureDataLatencies. A payload cfg could not have
// produced — bad framing, the wrong length, a memory instruction whose
// latency is no level's, or a nonzero latency on any other instruction —
// is rejected before installation so a stale artifact cannot poison the
// Program. When two levels share a latency, the first in lookup order is
// recorded; the latency the simulator reads is the same either way.
func (p *Program) AdoptDataLatencies(data []byte, cfg mem.Config) error {
	elems, err := trace.Int16sElems(data)
	if err != nil {
		return err
	}
	if len(elems) != 2*len(p.Desc) {
		return fmt.Errorf("cpu: data-latency timeline length %d != program length %d", len(elems)/2, len(p.Desc))
	}
	lat := func(i int) int16 { return int16(binary.LittleEndian.Uint16(elems[2*i:])) }
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
			if v := lat(i); v != 0 {
				return fmt.Errorf("cpu: data latency %d on non-memory instruction %d", v, i)
			}
		} else if _, ok := levelOf(lat(i)); !ok {
			return fmt.Errorf("cpu: data latency %d at instruction %d is no level's latency %v", lat(i), i, table)
		}
	}
	p.dataLatOnce.Do(func() {
		p.setDataConfig(cfg)
		for i, d := range p.Desc {
			if d&(descLoad|descStore) != 0 {
				l, _ := levelOf(lat(i))
				p.Desc[i] = withLevel(d, l)
			}
		}
	})
	p.checkDataConfig(cfg)
	return nil
}
