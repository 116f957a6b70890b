package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Binary container format, version 2:
//
//	magic    [4]byte  "ACTR"
//	version  uint32   2
//	nameLen  uint32
//	nsec     uint32
//	name     bytes (nameLen of them)
//	sections, each:
//	  tag    [4]byte
//	  length uint64   payload bytes
//	  crc    uint32   IEEE CRC-32 of the payload
//	  payload
//
// The container is a set of tagged sections so the prepared workload
// artifact — the instruction windows plus branch annotations, cpu.Program
// descriptor arrays, the data-latency timeline, and the next-use successor
// array — persists through the same codec as a bare trace (DESIGN.md §9).
// Unknown tags are preserved by ReadContainer, so older readers skip
// sections newer writers add.
//
// Instruction sections use the packed SecInstsZ encoding (stream.go). The
// remaining payload encodings (delta varints for sorted-ish uint64 arrays,
// zigzag varints for int64 arrays, fixed 2-byte little-endian for int16
// arrays) are exposed as helpers so the layers that own the typed arrays
// (cpu, analysis, experiments) encode them without duplicating varint
// plumbing.

var magic = [4]byte{'A', 'C', 'T', 'R'}

const codecVersion = 2

// Section tags for the workload artifacts persisted through this codec.
// The trace package owns only the names; the typed contents belong to the
// layers that produce them.
const (
	SecAnnot   = "ANNO" // branch.Annotation redirect byte per instruction
	SecDesc    = "DESC" // cpu.Program descriptor byte per instruction
	SecBlocks  = "BLKS" // collapsed block-access sequence (delta varints)
	SecNextAt  = "NXTA" // next-use successor array (zigzag varints)
	SecDataLat = "DLAT" // data-side latency timeline (int16 LE)
)

// ErrBadFormat reports a malformed, truncated, or corrupt stream.
var ErrBadFormat = errors.New("trace: bad format")

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Section is one tagged payload of a version-2 container.
type Section struct {
	Tag  string // 4 bytes
	Data []byte
}

// WriteContainer encodes a named set of sections in the v2 container
// format. Section order is preserved. The reader's sanity limits (name
// and section-count bounds, per-section payload <= maxSaneLen) are
// enforced here too, so a successful write always produces a readable
// file.
func WriteContainer(w io.Writer, name string, secs []Section) error {
	if len(name) > 1<<16 {
		return fmt.Errorf("trace: container name %d bytes exceeds the reader's %d limit", len(name), 1<<16)
	}
	if len(secs) > MaxSections {
		return fmt.Errorf("trace: %d sections exceed the reader's %d limit", len(secs), MaxSections)
	}
	for _, s := range secs {
		if len(s.Tag) != 4 {
			return fmt.Errorf("trace: section tag %q must be 4 bytes", s.Tag)
		}
		if uint64(len(s.Data)) > maxSaneLen {
			return fmt.Errorf("trace: section %q payload %d bytes exceeds the reader's limit", s.Tag, len(s.Data))
		}
	}
	if err := writeHeader(w, name, len(secs)); err != nil {
		return err
	}
	for _, s := range secs {
		if err := writeSection(w, s.Tag, s.Data); err != nil {
			return err
		}
	}
	return nil
}

// writeHeader writes the container header (magic, version, name length,
// section count, name) in one Write.
func writeHeader(w io.Writer, name string, nsec int) error {
	hdr := make([]byte, 16, 16+len(name))
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], codecVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(name)))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(nsec))
	_, err := w.Write(append(hdr, name...))
	return err
}

// writeSection writes one section's 16-byte header and then its payload,
// straight to w: no copy of the payload and no write buffer.
func writeSection(w io.Writer, tag string, data []byte) error {
	var sh [16]byte
	copy(sh[0:4], tag)
	binary.LittleEndian.PutUint64(sh[4:12], uint64(len(data)))
	binary.LittleEndian.PutUint32(sh[12:16], crc32.ChecksumIEEE(data))
	if _, err := w.Write(sh[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// MaxSections is the most sections a container may hold; the reader
// rejects a header claiming more, so the writers refuse to exceed it.
const MaxSections = 1 << 10

// maxSaneLen bounds a section's payload length: the reader rejects a
// header claiming more, so the writers refuse to exceed it.
const maxSaneLen = 1 << 32

// maxPreallocInsts caps the upfront record allocation a packed-section
// count can request; traces past it (128 MB of records) grow from there.
const maxPreallocInsts = 1 << 22

// ReadContainer decodes a v2 container read whole from r (see
// ParseContainer). Truncated streams and checksum mismatches return
// ErrBadFormat.
func ReadContainer(r io.Reader) (name string, secs []Section, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return ParseContainer(data)
}

// ParseContainer decodes a v2 container held in memory, verifying each
// section's checksum; truncated input and checksum mismatches return
// ErrBadFormat. It copies nothing: each section's Data aliases data
// (capacity-capped, so an append cannot overwrite its neighbour). A
// caller that keeps a section past data's lifetime, or mutates it, copies
// it first.
func ParseContainer(data []byte) (name string, secs []Section, err error) {
	spans, err := SectionSpans(data)
	if err != nil {
		return "", nil, err
	}
	secs = make([]Section, len(spans))
	for i, sp := range spans {
		payload := data[sp.Off : sp.Off+sp.Len : sp.Off+sp.Len]
		if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(data[sp.Off-4:sp.Off]) {
			return "", nil, fmt.Errorf("%w: section %q checksum mismatch", ErrBadFormat, sp.Tag)
		}
		secs[i] = Section{Tag: sp.Tag, Data: payload}
	}
	return string(data[16 : 16+binary.LittleEndian.Uint32(data[8:12])]), secs, nil
}

// FindSection returns the first section with the given tag.
func FindSection(secs []Section, tag string) ([]byte, bool) {
	for _, s := range secs {
		if s.Tag == tag {
			return s.Data, true
		}
	}
	return nil, false
}

// SectionSpan locates one section's payload inside an encoded container:
// Off is the payload's byte offset from the start of the container, Len
// its length. Spans let corruption tooling (and the fault-injection
// tests) target a precise CRC-covered byte range without re-encoding —
// rewriting through WriteContainer would recompute the checksum and hide
// the damage.
type SectionSpan struct {
	Tag string
	Off int
	Len int
}

// SectionSpans walks an encoded v2 container's layout without decoding
// payloads and returns each section's payload span. It is ParseContainer's
// walk without the payload CRC checks (the caller is usually about to
// break them on purpose).
func SectionSpans(data []byte) ([]SectionSpan, error) {
	if len(data) < 16 || !bytes.Equal(data[:4], magic[:]) {
		return nil, fmt.Errorf("%w: not a container", ErrBadFormat)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != codecVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrBadFormat, v, codecVersion)
	}
	nameLen := binary.LittleEndian.Uint32(data[8:12])
	nsec := binary.LittleEndian.Uint32(data[12:16])
	if nameLen > 1<<16 || nsec > MaxSections {
		return nil, fmt.Errorf("%w: implausible header (name %d, sections %d)", ErrBadFormat, nameLen, nsec)
	}
	off := 16 + int(nameLen)
	if off > len(data) {
		return nil, fmt.Errorf("%w: truncated in name", ErrBadFormat)
	}
	spans := make([]SectionSpan, 0, nsec)
	for i := uint32(0); i < nsec; i++ {
		if off+16 > len(data) {
			return nil, fmt.Errorf("%w: truncated at section %d header", ErrBadFormat, i)
		}
		tag := string(data[off : off+4])
		plen := binary.LittleEndian.Uint64(data[off+4 : off+12])
		if plen > maxSaneLen || off+16+int(plen) > len(data) {
			return nil, fmt.Errorf("%w: truncated in section %q payload", ErrBadFormat, tag)
		}
		spans = append(spans, SectionSpan{Tag: tag, Off: off + 16, Len: int(plen)})
		off += 16 + int(plen)
	}
	return spans, nil
}

// EncodeUint64sDelta encodes a uint64 array as count + zigzag varint deltas
// against the previous element (block sequences revisit nearby addresses,
// so deltas stay small).
func EncodeUint64sDelta(vals []uint64) []byte {
	out := make([]byte, 0, 2*len(vals)+binary.MaxVarintLen64)
	out = binary.AppendUvarint(out, uint64(len(vals)))
	var prev uint64
	for _, v := range vals {
		out = binary.AppendUvarint(out, zigzag(int64(v-prev)))
		prev = v
	}
	return out
}

// DecodeUint64sDelta decodes an EncodeUint64sDelta payload.
func DecodeUint64sDelta(data []byte) ([]uint64, error) {
	br := bytes.NewReader(data)
	count, err := binary.ReadUvarint(br)
	if err != nil || count > uint64(br.Len()) { // >= 1 payload byte per element
		return nil, fmt.Errorf("%w: uint64 array count", ErrBadFormat)
	}
	out := make([]uint64, count)
	var prev uint64
	for i := range out {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: uint64 array element %d: %v", ErrBadFormat, i, err)
		}
		prev += uint64(unzigzag(d))
		out[i] = prev
	}
	return out, nil
}

// EncodeInt64sDelta encodes an int64 array as count + zigzag varint deltas
// against the element index (successor arrays hold future indices, so the
// distance-to-index is small and the sentinel stays cheap).
func EncodeInt64sDelta(vals []int64) []byte {
	out := make([]byte, 0, 2*len(vals)+binary.MaxVarintLen64)
	out = binary.AppendUvarint(out, uint64(len(vals)))
	for i, v := range vals {
		out = binary.AppendUvarint(out, zigzag(v-int64(i)))
	}
	return out
}

// DecodeInt64sDelta decodes an EncodeInt64sDelta payload.
func DecodeInt64sDelta(data []byte) ([]int64, error) {
	br := bytes.NewReader(data)
	count, err := binary.ReadUvarint(br)
	if err != nil || count > uint64(br.Len()) { // >= 1 payload byte per element
		return nil, fmt.Errorf("%w: int64 array count", ErrBadFormat)
	}
	out := make([]int64, count)
	for i := range out {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: int64 array element %d: %v", ErrBadFormat, i, err)
		}
		out[i] = unzigzag(d) + int64(i)
	}
	return out, nil
}

// CountInt64sDelta checks an EncodeInt64sDelta payload as DecodeInt64sDelta
// does, refusing exactly the payloads it refuses, and returns its element
// count without building the array.
func CountInt64sDelta(data []byte) (int, error) {
	count, k := binary.Uvarint(data)
	if k <= 0 || count > uint64(len(data)-k) { // >= 1 payload byte per element
		return 0, fmt.Errorf("%w: int64 array count", ErrBadFormat)
	}
	data = data[k:]
	for i := range int(count) {
		if _, k = binary.Uvarint(data); k <= 0 {
			return 0, fmt.Errorf("%w: int64 array element %d: bad varint", ErrBadFormat, i)
		}
		data = data[k:]
	}
	return int(count), nil
}

// EncodeInt16s encodes an int16 array as count + 2-byte little-endian
// elements (latency timelines are dense and bounded, so fixed width beats
// varints).
func EncodeInt16s(vals []int16) []byte {
	return AppendInt16s(nil, len(vals), func(i int) int16 { return vals[i] })
}

// AppendInt16s appends the EncodeInt16s payload of n values, the i-th
// being at(i), to dst, so a caller that derives the values need not build
// the array.
func AppendInt16s(dst []byte, n int, at func(i int) int16) []byte {
	dst = slices.Grow(dst, 2*n+binary.MaxVarintLen64)
	dst = binary.AppendUvarint(dst, uint64(n))
	for i := range n {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(at(i)))
	}
	return dst
}

// DecodeInt16s decodes an EncodeInt16s payload.
func DecodeInt16s(data []byte) ([]int16, error) {
	elems, err := Int16sElems(data)
	if err != nil {
		return nil, err
	}
	out := make([]int16, len(elems)/2)
	for i := range out {
		out[i] = int16(binary.LittleEndian.Uint16(elems[2*i:]))
	}
	return out, nil
}

// Int16sElems checks an EncodeInt16s payload's framing as DecodeInt16s
// does, refusing exactly the payloads it refuses, and returns its
// elements in place: element i is the little-endian uint16 at 2*i.
func Int16sElems(data []byte) ([]byte, error) {
	count, k := binary.Uvarint(data)
	if k <= 0 || count > uint64(len(data)-k) { // the length check below needs 2 bytes per element
		return nil, fmt.Errorf("%w: int16 array count", ErrBadFormat)
	}
	rest := data[k:]
	if uint64(len(rest)) != 2*count {
		return nil, fmt.Errorf("%w: int16 array payload %d bytes, want %d", ErrBadFormat, len(rest), 2*count)
	}
	return rest, nil
}

// Write encodes t as a v2 container holding one packed instruction
// section (SecInstsZ).
func Write(w io.Writer, t *Trace) error {
	return WriteContainer(w, t.Name, []Section{{Tag: SecInstsZ, Data: EncodeInstsPacked(t.Insts)}})
}

// Read decodes a trace written by Write, or the instruction stream of
// any container carrying SecInstsZ sections (a streamed trace or a
// workload artifact).
func Read(r io.Reader) (*Trace, error) {
	name, secs, err := ReadContainer(r)
	if err != nil {
		return nil, err
	}
	insts, err := InstsFromSections(secs)
	if err != nil {
		return nil, err
	}
	return &Trace{Name: name, Insts: insts}, nil
}

// InstsFromSections concatenates a container's SecInstsZ sections, in
// order, into one instruction stream; streamed containers carry one per
// window. It is the one concatenation path: Read and the workload
// artifact decoder both use it. CountInsts accepts and refuses exactly
// what it does.
func InstsFromSections(secs []Section) ([]Inst, error) {
	// Sum the per-section counts up front so the concatenation is one
	// allocation: appending window-sized sections into a growing slice
	// reallocates ~5x the final bytes in 1.25x growth steps on streamed
	// containers. The counts sit behind each section's verified CRC, and a
	// count its payload is too short to encode is left out (its section
	// fails to decode below), so a forged count is only a capped hint.
	var total uint64
	found := false
	for _, s := range secs {
		if s.Tag == SecInstsZ {
			found = true
			if c, _, err := packedCount(s.Data); err == nil {
				total += c
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: no %s section", ErrBadFormat, SecInstsZ)
	}
	insts := make([]Inst, 0, min(total, maxPreallocInsts))
	for _, s := range secs {
		if s.Tag == SecInstsZ {
			var err error
			if insts, err = AppendInstsPacked(insts, s.Data); err != nil {
				return nil, err
			}
		}
	}
	return insts, nil
}

// CountInsts decodes a container's SecInstsZ sections one at a time into
// one reused window buffer and returns their total record count. Every
// window is checked as InstsFromSections checks it, but the instruction
// stream is never held whole: a reader that needs only the count and the
// proof that the stream decodes pays for one window of records.
func CountInsts(secs []Section) (int, error) {
	var window []Inst
	n, found := 0, false
	for _, s := range secs {
		if s.Tag != SecInstsZ {
			continue
		}
		found = true
		var err error
		if window, err = AppendInstsPacked(window[:0], s.Data); err != nil {
			return 0, err
		}
		n += len(window)
	}
	if !found {
		return 0, fmt.Errorf("%w: no %s section", ErrBadFormat, SecInstsZ)
	}
	return n, nil
}
