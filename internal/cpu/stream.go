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
// feeding the trace window by window yields the descriptors and blocks of
// NewProgram(tr, fe.Annotate(tr)) followed by EnsureDataLatencies(cfg)
// (TestProgramBuilderMatchesBatch pins this at several window sizes).
//
// The payoff is what the builder does NOT keep: the instruction window is
// dead once appended, and each instruction's branch redirect and data
// level go into its descriptor byte, so a streamed prepare holds O(window)
// Inst records and, per instruction, only what a Suite keeps: Desc,
// Blocks and the run-ahead bitmap. The finished Program has no Ann,
// MemBlk or DataLat (and its Trace no Insts): its descriptors and blocks
// are the whole workload artifact after the trace.
type ProgramBuilder struct {
	p         *Program
	fe        *branch.FrontEnd
	hier      *mem.Hierarchy
	prevBlock uint64
}

// BlockAccessesHint estimates how many block accesses a trace of n
// instructions opens, for sizing per-access arrays up front: n/7. Every
// workload profile opens between 0.121 and 0.138 accesses an instruction
// (at 400k and at 1.6M instructions), so arrays sized by it hold at most
// 18% spare capacity and are never regrown for them. A cold Suite
// workload keeps its Blocks array for the whole run.
func BlockAccessesHint(n int) int { return n/7 + 1 }

// NewProgramBuilder starts an incremental build. name becomes the finished
// Program's trace name; cfg is the data-hierarchy configuration the
// data levels are replayed under (the same one EnsureDataLatencies would
// take); capHint pre-sizes the descriptors, and the blocks by
// BlockAccessesHint, when the final length is known (0 is fine).
func NewProgramBuilder(name string, cfg mem.Config, capHint int) *ProgramBuilder {
	p := &Program{
		Trace:  &trace.Trace{Name: name},
		Desc:   make([]uint8, 0, capHint),
		Blocks: make([]uint64, 0, BlockAccessesHint(capHint)),
	}
	p.dataLatOnce.Do(func() { p.setDataConfig(cfg) })
	return &ProgramBuilder{p: p, fe: branch.NewFrontEnd(), hier: mem.New(cfg)}
}

// Append annotates and assembles one instruction window. The insts slice
// is not retained — callers may reuse its backing array.
func (b *ProgramBuilder) Append(insts []trace.Inst) {
	p := b.p
	ann := b.fe.AnnotateInsts(insts)
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
		switch in.Class {
		case trace.ClassLoad, trace.ClassStore:
			if in.Class == trace.ClassLoad {
				d |= descLoad
			} else {
				d |= descStore
			}
			d = withLevel(d, b.hier.DataLevel(trace.Block(in.MemAddr)))
		}
		if in.Class.IsBranch() && (in.Class != trace.ClassCondBranch || in.Taken) {
			d |= descGroupEnd
		}
		d |= redirectDesc(ann[k].Redirect)
		p.Desc = append(p.Desc, d)
		if d&descRunEvent != 0 {
			for i>>6 >= len(p.runEvents) {
				p.runEvents = append(p.runEvents, 0)
			}
			p.runEvents[i>>6] |= 1 << uint(i&63)
		}
	}
}

// Len returns the number of instructions appended so far.
func (b *ProgramBuilder) Len() int { return len(b.p.Desc) }

// Finish returns the completed Program. The descriptors' data levels are
// already installed under the builder's config (a later
// EnsureDataLatencies with the same config is a no-op; a different config
// panics, as always). The builder must not be appended
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

// RunLengths returns, for each access of the collapsed Blocks sequence,
// the number of consecutive instructions it covers, read from the
// descriptors' block-opening bits. For a batch-built Program this equals
// the source trace's RunLengths. With Blocks it is all the Fig 1a/1b
// analyses need of the instruction-granularity references, so they run
// on Programs that hold no Inst records.
func (p *Program) RunLengths() []int32 {
	out := make([]int32, len(p.Blocks))
	bi := -1
	for _, d := range p.Desc {
		if d&descNewBlock != 0 {
			bi++
		}
		out[bi]++
	}
	return out
}
