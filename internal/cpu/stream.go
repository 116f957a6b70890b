package cpu

import (
	"acic/internal/branch"
	"acic/internal/mem"
	"acic/internal/trace"
)

// ProgramBuilder assembles a Program incrementally from instruction
// windows, fusing the three whole-trace prepare passes — branch
// annotation, descriptor derivation, and the data-latency replay — into
// one per-window pass. The builder owns a branch.FrontEnd and a
// persistent data hierarchy; both are plain sequential state machines, so
// feeding the trace window by window produces field-identical results to
// NewProgram(tr, fe.Annotate(tr)) followed by EnsureDataLatencies(cfg)
// (TestProgramBuilderMatchesBatch pins this at several window sizes).
//
// The payoff is what the builder does NOT keep: the instruction window is
// dead once appended, so a streamed prepare holds O(window) Inst records
// instead of O(trace) — the finished Program carries only the per-
// instruction byte/array state the simulator and the artifact writer read
// (Desc, Ann, MemBlk, DataLat, Blocks, runEvents; the Trace field has no
// Insts).
type ProgramBuilder struct {
	p         *Program
	fe        *branch.FrontEnd
	hier      *mem.Hierarchy
	prevBlock uint64
}

// NewProgramBuilder starts an incremental build. name becomes the finished
// Program's trace name; cfg is the data-hierarchy configuration the
// latency timeline is replayed under (the same one EnsureDataLatencies
// would take); capHint pre-sizes the per-instruction arrays when the final
// length is known (0 is fine).
func NewProgramBuilder(name string, cfg mem.Config, capHint int) *ProgramBuilder {
	p := &Program{
		Trace:   &trace.Trace{Name: name},
		Ann:     make([]branch.Annotation, 0, capHint),
		Desc:    make([]uint8, 0, capHint),
		Blocks:  make([]uint64, 0, capHint/4+1),
		MemBlk:  make([]uint64, 0, capHint),
		DataLat: make([]int16, 0, capHint),
	}
	p.dataLatOnce.Do(func() { p.setDataConfig(cfg) })
	return &ProgramBuilder{p: p, fe: branch.NewFrontEnd(), hier: mem.New(cfg)}
}

// Append annotates and assembles one instruction window. It returns the
// block accesses the window opened (the tail of the collapsed Blocks
// sequence), which is what the successor-array builder consumes; the
// returned slice aliases the Program and must not be mutated. The insts
// slice itself is not retained — callers may reuse its backing array.
func (b *ProgramBuilder) Append(insts []trace.Inst) []uint64 {
	p := b.p
	ann := b.fe.AnnotateInsts(insts)
	firstBlock := len(p.Blocks)
	for k := range insts {
		in := &insts[k]
		i := len(p.Desc)
		var d uint8
		blk := in.Block()
		if i == 0 || blk != b.prevBlock {
			d |= descNewBlock
			p.Blocks = append(p.Blocks, blk)
		}
		b.prevBlock = blk
		var memBlk uint64
		var lat int16
		switch in.Class {
		case trace.ClassLoad, trace.ClassStore:
			if in.Class == trace.ClassLoad {
				d |= descLoad
			} else {
				d |= descStore
			}
			memBlk = trace.Block(in.MemAddr)
			l := b.hier.DataLevel(memBlk)
			d = withLevel(d, l)
			lat = int16(p.levelLat[l])
		}
		if in.Class.IsBranch() && (in.Class != trace.ClassCondBranch || in.Taken) {
			d |= descGroupEnd
		}
		switch ann[k].Redirect {
		case branch.RedirectMispredict:
			d |= descMispredict
		case branch.RedirectMisfetch:
			d |= descMisfetch
		}
		p.Desc = append(p.Desc, d)
		p.MemBlk = append(p.MemBlk, memBlk)
		p.DataLat = append(p.DataLat, lat)
		if d&descRunEvent != 0 {
			for i>>6 >= len(p.runEvents) {
				p.runEvents = append(p.runEvents, 0)
			}
			p.runEvents[i>>6] |= 1 << uint(i&63)
		}
	}
	p.Ann = append(p.Ann, ann...)
	return p.Blocks[firstBlock:]
}

// Len returns the number of instructions appended so far.
func (b *ProgramBuilder) Len() int { return len(b.p.Desc) }

// Finish returns the completed Program. The data-latency timeline and the
// descriptors' data levels are already installed under the builder's
// config (a later EnsureDataLatencies with the same config is a no-op; a
// different config panics, as always). The builder must not be appended
// to afterwards.
func (b *ProgramBuilder) Finish() *Program {
	p := b.p
	// NewProgram sizes the run-ahead bitmap to (n+63)/64+1 words; match it
	// exactly so the run-ahead walker's word loop sees the same bounds.
	want := (len(p.Desc)+63)/64 + 1
	for len(p.runEvents) < want {
		p.runEvents = append(p.runEvents, 0)
	}
	p.runEvents = p.runEvents[:want]
	b.p = nil
	return p
}

// BlockRefs expands the per-instruction block-reference sequence from the
// descriptor stream and the collapsed Blocks array: instructions that open
// a block access advance through Blocks, the rest repeat the current
// block. For a batch-built Program this equals analysis.InstBlockRefs of
// the source trace; it exists so the figure analyses that need
// instruction-granularity references (Fig 1a/1b) work on streamed
// Programs, which do not retain Inst records.
func (p *Program) BlockRefs() []uint64 {
	out := make([]uint64, len(p.Desc))
	bi := -1
	var cur uint64
	for i, d := range p.Desc {
		if d&descNewBlock != 0 {
			bi++
			cur = p.Blocks[bi]
		}
		out[i] = cur
	}
	return out
}
