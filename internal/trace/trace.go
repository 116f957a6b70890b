// Package trace defines the instruction-trace representation consumed by the
// simulator, together with a compact binary codec and streaming reader/writer.
//
// The paper collects full-system QEMU traces and replays them through a
// cycle-accurate simulator. Here a trace is a sequence of Inst records, each
// describing one dynamic instruction: its PC, its class, and (for control
// flow) its taken direction and target, and (for memory ops) its effective
// address. The i-cache subsystems under study operate on 64-byte blocks of
// the PC stream; helpers for block extraction live here so every package
// shares one definition.
package trace

// BlockShift is log2 of the instruction block size (64-byte blocks).
const BlockShift = 6

// BlockSize is the instruction cache block size in bytes.
const BlockSize = 1 << BlockShift

// Block returns the cache-block address (block number) of a byte address.
func Block(addr uint64) uint64 { return addr >> BlockShift }

// Class enumerates instruction classes the timing model distinguishes.
type Class uint8

// Instruction classes.
const (
	ClassALU Class = iota // arithmetic/logic, no memory, no control flow
	ClassLoad
	ClassStore
	ClassCondBranch // conditional direct branch
	ClassJump       // unconditional direct jump
	ClassCall       // direct call (pushes return address)
	ClassRet        // return (pops return address)
	ClassIndirect   // indirect jump/call other than return
	numClasses
)

// String returns a short mnemonic for the class.
func (c Class) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassCondBranch:
		return "br"
	case ClassJump:
		return "jmp"
	case ClassCall:
		return "call"
	case ClassRet:
		return "ret"
	case ClassIndirect:
		return "ind"
	default:
		return "?"
	}
}

// IsBranch reports whether the class redirects control flow.
func (c Class) IsBranch() bool {
	switch c {
	case ClassCondBranch, ClassJump, ClassCall, ClassRet, ClassIndirect:
		return true
	}
	return false
}

// IsMem reports whether the class accesses data memory.
func (c Class) IsMem() bool { return c == ClassLoad || c == ClassStore }

// Inst is one dynamic instruction in a trace.
type Inst struct {
	PC      uint64 // instruction virtual address
	Target  uint64 // next PC if the branch is taken (branches only)
	MemAddr uint64 // effective address (loads/stores only)
	Class   Class
	Taken   bool // conditional branches: actual direction
}

// Block returns the instruction block this instruction resides in.
func (in *Inst) Block() uint64 { return Block(in.PC) }

// NextPC returns the architecturally correct next PC given the following
// sequential address fallthrough. For taken control flow it is Target.
func (in *Inst) NextPC(fallthrough_ uint64) uint64 {
	if in.Class.IsBranch() && (in.Class != ClassCondBranch || in.Taken) {
		return in.Target
	}
	return fallthrough_
}

// Trace is an in-memory instruction trace.
type Trace struct {
	Name  string
	Insts []Inst
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.Insts) }

// BlockAccesses returns the sequence of instruction-block accesses in fetch
// order, collapsing consecutive instructions in the same block into a single
// access. This is the granularity at which the i-cache subsystems operate:
// the fetch engine touches the block once per fetch group that enters it.
func (t *Trace) BlockAccesses() []uint64 {
	out := make([]uint64, 0, len(t.Insts)/4+1)
	var last uint64 = ^uint64(0)
	for i := range t.Insts {
		b := t.Insts[i].Block()
		if b != last {
			out = append(out, b)
			last = b
		}
	}
	return out
}

// RunLengths returns, for each access of BlockAccesses, the number of
// consecutive instructions it collapses (at least 1): the run lengths
// that recover the per-instruction reference stream from the collapsed
// one.
func (t *Trace) RunLengths() []int32 {
	out := make([]int32, 0, len(t.Insts)/4+1)
	var last uint64 = ^uint64(0)
	for i := range t.Insts {
		b := t.Insts[i].Block()
		if b != last {
			out = append(out, 0)
			last = b
		}
		out[len(out)-1]++
	}
	return out
}

// Footprint returns the number of distinct instruction blocks in the trace.
func (t *Trace) Footprint() int {
	seen := make(map[uint64]struct{})
	for i := range t.Insts {
		seen[t.Insts[i].Block()] = struct{}{}
	}
	return len(seen)
}
