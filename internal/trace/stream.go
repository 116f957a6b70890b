package trace

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Packed instruction sections and chunked container writing.
//
// A plain varint record spends ~4B per instruction: a varint PC delta, a
// flags byte, and (for branches/mem ops) a raw operand varint. The packed
// SecInstsZ payload folds the dominant structure of the stream into single
// tokens:
//
//	payload := count uvarint, then records
//	token   := uvarint(u<<5 | op)
//	op 0..15:  one record; class = op>>1, taken = op&1,
//	           u = zigzag((PC-prevPC)/4)   (instruction PCs are 4-aligned)
//	           branches append uvarint(zigzag((Target-PC)/4))
//	           loads/stores append uvarint(zigzag(MemAddr-prevMem))
//	op 16:     a run of u sequential not-taken ALU instructions, each
//	           advancing the PC by 4 (u <= maxPackedRun; longer runs
//	           take several tokens)
//	op 17:     escape for records the folded forms cannot carry (PC or
//	           target not 4-aligned): uvarint(zigzag(PC-prevPC)), a flags
//	           byte (class | taken<<7), then for branches
//	           uvarint(zigzag(Target-PC)) and for loads/stores the
//	           memaddr delta above
//
// Sequential fetch makes the common tokens one byte (delta/4 = 1 folds to
// token 64+op) and collapses straight-line ALU runs to one or two bytes,
// so the packed stream lands well under 4B/inst. Each section is
// self-contained — prevPC and prevMem reset to zero per section — which is
// what lets the streaming writer emit one section per window and the
// reader concatenate any number of SecInstsZ sections back into one trace.

// SecInstsZ tags a packed instruction section. A container may carry
// several (one per streamed window); Read concatenates them in order.
const SecInstsZ = "INSZ"

const (
	packedOpShift  = 5
	packedOpMask   = 1<<packedOpShift - 1
	packedOpRun    = 16 // u = run length of sequential ALU records
	packedOpEscape = 17 // unfolded record follows
)

// maxPackedRun caps one run token's length. Generated traces never come
// close (their ALU runs are about ten long); the cap is what bounds how
// far a payload can expand. A run token of length u <= 3 is one byte and
// any longer one is two, so a payload byte encodes at most
// maxPackedPerByte records, and a forged count or run cannot make a few
// bytes decode into gigabytes of records.
const (
	maxPackedRun     = 256
	maxPackedPerByte = maxPackedRun / 2
)

// EncodeInstsPacked encodes an instruction stream as a SecInstsZ payload.
func EncodeInstsPacked(insts []Inst) []byte {
	out := make([]byte, 0, len(insts)+len(insts)/2+binary.MaxVarintLen64)
	out = binary.AppendUvarint(out, uint64(len(insts)))
	var prevPC, prevMem uint64
	for i := 0; i < len(insts); {
		in := &insts[i]
		// Maximal run of sequential not-taken ALU instructions, up to
		// maxPackedRun per token.
		if in.Class == ClassALU && !in.Taken && in.PC == prevPC+instAlign {
			j := i + 1
			for j < len(insts) && j-i < maxPackedRun && insts[j].Class == ClassALU && !insts[j].Taken &&
				insts[j].PC == insts[j-1].PC+instAlign {
				j++
			}
			if run := j - i; run >= 2 {
				out = binary.AppendUvarint(out, uint64(run)<<packedOpShift|packedOpRun)
				prevPC = insts[j-1].PC
				i = j
				continue
			}
		}
		pcDelta := int64(in.PC - prevPC)
		tgtDelta := int64(in.Target - in.PC)
		foldable := in.Class < 16 && pcDelta%instAlign == 0 &&
			(!in.Class.IsBranch() || tgtDelta%instAlign == 0)
		if foldable {
			op := uint64(in.Class) << 1
			if in.Taken {
				op |= 1
			}
			out = binary.AppendUvarint(out, zigzag(pcDelta/instAlign)<<packedOpShift|op)
			if in.Class.IsBranch() {
				out = binary.AppendUvarint(out, zigzag(tgtDelta/instAlign))
			}
		} else {
			out = binary.AppendUvarint(out, packedOpEscape) // u = 0
			out = binary.AppendUvarint(out, zigzag(pcDelta))
			flags := byte(in.Class)
			if in.Taken {
				flags |= 0x80
			}
			out = append(out, flags)
			if in.Class.IsBranch() {
				out = binary.AppendUvarint(out, zigzag(tgtDelta))
			}
		}
		if in.Class.IsMem() {
			out = binary.AppendUvarint(out, zigzag(int64(in.MemAddr-prevMem)))
			prevMem = in.MemAddr
		}
		prevPC = in.PC
		i++
	}
	return out
}

// instAlign is the fixed instruction encoding width assumed by the folded
// token forms; anything else rides the escape op.
const instAlign = 4

// DecodeInstsPacked decodes one SecInstsZ payload.
func DecodeInstsPacked(data []byte) ([]Inst, error) {
	return AppendInstsPacked(nil, data)
}

// AppendInstsPacked decodes a SecInstsZ payload, appending to dst — the
// reader uses it to concatenate the per-window sections a streamed
// container carries.
func AppendInstsPacked(dst []Inst, data []byte) ([]Inst, error) {
	count, pos, err := packedCount(data)
	if err != nil {
		return nil, err
	}
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	if dst == nil {
		dst = make([]Inst, 0, min(count, 1<<20))
	}
	var prevPC, prevMem uint64
	for n := uint64(0); n < count; {
		tok, ok := uvarint()
		if !ok {
			return nil, fmt.Errorf("%w: packed record %d: truncated token", ErrBadFormat, n)
		}
		op := tok & packedOpMask
		u := tok >> packedOpShift
		var in Inst
		switch {
		case op == packedOpRun:
			if u < 1 || u > maxPackedRun || u > count-n {
				return nil, fmt.Errorf("%w: packed record %d: run of %d outside [1, min(%d, %d)]", ErrBadFormat, n, u, maxPackedRun, count-n)
			}
			for k := uint64(0); k < u; k++ {
				prevPC += instAlign
				dst = append(dst, Inst{PC: prevPC, Class: ClassALU})
			}
			n += u
			continue
		case op == packedOpEscape:
			d, ok := uvarint()
			if !ok {
				return nil, fmt.Errorf("%w: packed record %d: truncated escape delta", ErrBadFormat, n)
			}
			if pos >= len(data) {
				return nil, fmt.Errorf("%w: packed record %d: truncated flags", ErrBadFormat, n)
			}
			flags := data[pos]
			pos++
			in = Inst{PC: prevPC + uint64(unzigzag(d)), Class: Class(flags & 0x7f), Taken: flags&0x80 != 0}
			if in.Class >= numClasses {
				return nil, fmt.Errorf("%w: packed record %d: bad class %d", ErrBadFormat, n, in.Class)
			}
			if in.Class.IsBranch() {
				td, ok := uvarint()
				if !ok {
					return nil, fmt.Errorf("%w: packed record %d: truncated target", ErrBadFormat, n)
				}
				in.Target = in.PC + uint64(unzigzag(td))
			}
		default:
			in = Inst{PC: prevPC + uint64(unzigzag(u)*instAlign), Class: Class(op >> 1), Taken: op&1 != 0}
			if in.Class >= numClasses {
				return nil, fmt.Errorf("%w: packed record %d: bad class %d", ErrBadFormat, n, in.Class)
			}
			if in.Class.IsBranch() {
				td, ok := uvarint()
				if !ok {
					return nil, fmt.Errorf("%w: packed record %d: truncated target", ErrBadFormat, n)
				}
				in.Target = in.PC + uint64(unzigzag(td)*instAlign)
			}
		}
		if in.Class.IsMem() {
			d, ok := uvarint()
			if !ok {
				return nil, fmt.Errorf("%w: packed record %d: truncated memaddr", ErrBadFormat, n)
			}
			in.MemAddr = prevMem + uint64(unzigzag(d))
			prevMem = in.MemAddr
		}
		prevPC = in.PC
		dst = append(dst, in)
		n++
	}
	return dst, nil
}

// packedCount reads a SecInstsZ payload's record count and the count's
// encoded length, rejecting a count the payload is too short to encode.
func packedCount(data []byte) (count uint64, n int, err error) {
	count, n = binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: packed instruction count: truncated varint", ErrBadFormat)
	}
	if count > maxPackedPerByte*uint64(len(data)-n) {
		return 0, 0, fmt.Errorf("%w: packed instruction count %d exceeds what %d payload bytes encode", ErrBadFormat, count, len(data)-n)
	}
	return count, n, nil
}

// ContainerWriter writes a v2 container section by section, so a streamed
// producer can append windows as they are generated instead of holding the
// whole image in memory. The section count is not known up front; Close
// patches it into the header, which is why the writer needs an
// io.WriteSeeker (the artifact store hands it the temp file it later
// renames into place).
type ContainerWriter struct {
	ws   io.WriteSeeker
	nsec uint32
	err  error
}

// nsecOffset is the byte offset of the section-count field in the
// container header: magic[4] + version[4] + nameLen[4].
const nsecOffset = 12

// NewContainerWriter writes the container header with a zero section
// count and returns a writer ready for WriteSection calls.
func NewContainerWriter(ws io.WriteSeeker, name string) (*ContainerWriter, error) {
	if len(name) > 1<<16 {
		return nil, fmt.Errorf("trace: container name %d bytes exceeds the reader's %d limit", len(name), 1<<16)
	}
	if err := writeHeader(ws, name, 0); err != nil { // count patched by Close
		return nil, err
	}
	return &ContainerWriter{ws: ws}, nil
}

// WriteSection appends one tagged section.
func (cw *ContainerWriter) WriteSection(tag string, data []byte) error {
	if cw.err != nil {
		return cw.err
	}
	if len(tag) != 4 {
		return fmt.Errorf("trace: section tag %q must be 4 bytes", tag)
	}
	if uint64(len(data)) > maxSaneLen {
		return fmt.Errorf("trace: section %q payload %d bytes exceeds the reader's limit", tag, len(data))
	}
	if cw.nsec >= MaxSections {
		cw.err = fmt.Errorf("trace: section count exceeds the reader's %d limit", MaxSections)
		return cw.err
	}
	if err := writeSection(cw.ws, tag, data); err != nil {
		cw.err = err
		return err
	}
	cw.nsec++
	return nil
}

// Close patches the section count into the header, leaving the stream
// positioned at the end of the container.
func (cw *ContainerWriter) Close() error {
	if cw.err != nil {
		return cw.err
	}
	if _, err := cw.ws.Seek(nsecOffset, io.SeekStart); err != nil {
		cw.err = err
		return err
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], cw.nsec)
	if _, err := cw.ws.Write(n[:]); err != nil {
		cw.err = err
		return err
	}
	if _, err := cw.ws.Seek(0, io.SeekEnd); err != nil {
		cw.err = err
		return err
	}
	return nil
}
