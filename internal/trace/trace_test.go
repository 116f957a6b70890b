package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"
)

func TestBlock(t *testing.T) {
	cases := []struct {
		addr uint64
		want uint64
	}{
		{0, 0},
		{63, 0},
		{64, 1},
		{65, 1},
		{0x1000, 0x40},
		{^uint64(0), ^uint64(0) >> 6},
	}
	for _, c := range cases {
		if got := Block(c.addr); got != c.want {
			t.Errorf("Block(%#x) = %#x, want %#x", c.addr, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	for c := ClassALU; c < numClasses; c++ {
		if c.String() == "?" {
			t.Errorf("class %d has no name", c)
		}
	}
	if Class(200).String() != "?" {
		t.Error("invalid class should stringify to ?")
	}
}

func TestClassPredicates(t *testing.T) {
	branches := []Class{ClassCondBranch, ClassJump, ClassCall, ClassRet, ClassIndirect}
	for _, c := range branches {
		if !c.IsBranch() {
			t.Errorf("%v should be a branch", c)
		}
		if c.IsMem() {
			t.Errorf("%v should not be a memory op", c)
		}
	}
	if ClassALU.IsBranch() || ClassLoad.IsBranch() {
		t.Error("ALU/Load must not be branches")
	}
	if !ClassLoad.IsMem() || !ClassStore.IsMem() {
		t.Error("load/store must be memory ops")
	}
}

func TestNextPC(t *testing.T) {
	in := Inst{PC: 100, Class: ClassCondBranch, Target: 500, Taken: true}
	if got := in.NextPC(104); got != 500 {
		t.Errorf("taken branch NextPC = %d, want 500", got)
	}
	in.Taken = false
	if got := in.NextPC(104); got != 104 {
		t.Errorf("not-taken branch NextPC = %d, want 104", got)
	}
	alu := Inst{PC: 100, Class: ClassALU}
	if got := alu.NextPC(104); got != 104 {
		t.Errorf("ALU NextPC = %d, want 104", got)
	}
	jmp := Inst{PC: 100, Class: ClassJump, Target: 64}
	if got := jmp.NextPC(104); got != 64 {
		t.Errorf("jump NextPC = %d, want 64", got)
	}
}

func TestBlockAccessesCollapses(t *testing.T) {
	tr := &Trace{Insts: []Inst{
		{PC: 0}, {PC: 4}, {PC: 8}, // block 0
		{PC: 64},          // block 1
		{PC: 0},           // block 0 again
		{PC: 4}, {PC: 60}, // still block 0
	}}
	got := tr.BlockAccesses()
	want := []uint64{0, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFootprint(t *testing.T) {
	tr := &Trace{Insts: []Inst{{PC: 0}, {PC: 4}, {PC: 64}, {PC: 128}, {PC: 64}}}
	if got := tr.Footprint(); got != 3 {
		t.Errorf("footprint = %d, want 3", got)
	}
	empty := &Trace{}
	if empty.Footprint() != 0 || empty.Len() != 0 {
		t.Error("empty trace should have zero footprint and length")
	}
}

func randomTrace(rng *rand.Rand, n int) *Trace {
	tr := &Trace{Name: "random"}
	pc := uint64(0x400000)
	for i := 0; i < n; i++ {
		in := Inst{PC: pc, Class: Class(rng.Intn(int(numClasses)))}
		if in.Class.IsBranch() {
			in.Target = pc + uint64(rng.Intn(1<<20)) - 1<<19
			in.Taken = rng.Intn(2) == 0
		}
		if in.Class.IsMem() {
			in.MemAddr = uint64(rng.Int63n(1 << 40))
		}
		tr.Insts = append(tr.Insts, in)
		pc = in.NextPC(pc + 4)
	}
	return tr
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 17, 1000, 10000} {
		tr := randomTrace(rng, n)
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("Write(n=%d): %v", n, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read(n=%d): %v", n, err)
		}
		if got.Name != tr.Name || len(got.Insts) != len(tr.Insts) {
			t.Fatalf("n=%d: header mismatch", n)
		}
		for i := range tr.Insts {
			if got.Insts[i] != tr.Insts[i] {
				t.Fatalf("n=%d: inst %d: got %+v want %+v", n, i, got.Insts[i], tr.Insts[i])
			}
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace file at all"))); err == nil {
		t.Error("expected error for bad magic")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("expected error for empty input")
	}
	// Truncated valid stream.
	tr := randomTrace(rand.New(rand.NewSource(7)), 100)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("expected error for truncated stream")
	}
}

func TestCodecRefusesLegacyV1(t *testing.T) {
	// A version-1 file is a bare record stream after the header. That
	// reader was retired with schema 4, so Read must refuse the header
	// before it looks at the records.
	tr := randomTrace(rand.New(rand.NewSource(11)), 500)
	var buf bytes.Buffer
	buf.Write(magic[:])
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(tr.Name)))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(tr.Insts)))
	buf.Write(hdr[:])
	buf.WriteString(tr.Name)
	buf.Write(EncodeInstsPacked(tr.Insts))

	if _, err := Read(&buf); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("Read(v1): got %v, want ErrBadFormat", err)
	}
}

func TestCodecRejectsUnsupportedVersion(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(5)), 10)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint32(data[4:8], 3) // future version
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("future version: got %v, want ErrBadFormat", err)
	}
}

func TestContainerRoundTrip(t *testing.T) {
	secs := []Section{
		{Tag: SecDesc, Data: []byte{1, 2, 3, 4, 5}},
		{Tag: SecBlocks, Data: EncodeUint64sDelta([]uint64{0, 4, 1, 300})},
		{Tag: "XTRA", Data: nil}, // unknown tags round-trip too
	}
	var buf bytes.Buffer
	if err := WriteContainer(&buf, "wl", secs); err != nil {
		t.Fatal(err)
	}
	name, got, err := ReadContainer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "wl" || len(got) != len(secs) {
		t.Fatalf("container header mismatch: %q, %d sections", name, len(got))
	}
	for i := range secs {
		if got[i].Tag != secs[i].Tag || !bytes.Equal(got[i].Data, secs[i].Data) {
			t.Errorf("section %d mismatch: %+v vs %+v", i, got[i], secs[i])
		}
	}
	if _, ok := FindSection(got, SecBlocks); !ok {
		t.Error("FindSection missed BLKS")
	}
	if _, ok := FindSection(got, SecInstsZ); ok {
		t.Error("FindSection found an absent tag")
	}
}

// TestContainerWritersAllocateByPayload: writing a small container costs
// bytes in proportion to what it writes, not a fixed write buffer, on
// both writers.
func TestContainerWritersAllocateByPayload(t *testing.T) {
	secs := []Section{{Tag: SecDesc, Data: make([]byte, 64)}, {Tag: SecBlocks, Data: make([]byte, 64)}}
	f, err := os.Create(filepath.Join(t.TempDir(), "c.actr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const runs = 50
	const bound = 4 << 10 // bytes per call
	for _, tc := range []struct {
		name  string
		write func() error
	}{
		{"WriteContainer", func() error { return WriteContainer(io.Discard, "small", secs) }},
		{"ContainerWriter", func() error {
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				return err
			}
			cw, err := NewContainerWriter(f, "small")
			if err != nil {
				return err
			}
			for _, s := range secs {
				if err := cw.WriteSection(s.Tag, s.Data); err != nil {
					return err
				}
			}
			return cw.Close()
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if err := tc.write(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > bound {
			t.Errorf("%s allocates %d bytes per small container, want <= %d", tc.name, per, bound)
		}
	}
}

func TestContainerRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	err := WriteContainer(&buf, "wl", []Section{{Tag: SecBlocks, Data: EncodeUint64sDelta([]uint64{9, 1, 5, 5})}})
	if err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	// Flip a payload byte: the section checksum must catch it.
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)-1] ^= 0xff
	if _, _, err := ReadContainer(bytes.NewReader(corrupt)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("corrupt payload: got %v, want ErrBadFormat", err)
	}

	// Truncation anywhere must fail, not decode partially.
	for _, cut := range []int{1, len(clean) / 2, len(clean) - 1} {
		if _, _, err := ReadContainer(bytes.NewReader(clean[:cut])); !errors.Is(err, ErrBadFormat) {
			t.Errorf("truncated at %d: got %v, want ErrBadFormat", cut, err)
		}
	}
}

func TestTypedPayloadRoundTrips(t *testing.T) {
	u64 := []uint64{0, 1, 1, 1 << 40, 3, ^uint64(0), 12}
	if got, err := DecodeUint64sDelta(EncodeUint64sDelta(u64)); err != nil || !equalSlices(got, u64) {
		t.Errorf("uint64 round trip: %v, %v", got, err)
	}
	// Empty arrays round-trip as empty, not nil panics.
	if got, err := DecodeUint64sDelta(EncodeUint64sDelta(nil)); err != nil || len(got) != 0 {
		t.Errorf("empty uint64 round trip: %v, %v", got, err)
	}
	// Truncated typed payloads fail cleanly.
	full := EncodeUint64sDelta(u64)
	if _, err := DecodeUint64sDelta(full[:len(full)-1]); err == nil {
		t.Error("truncated uint64 payload should fail")
	}
	// A count far beyond the payload must be rejected before allocation,
	// not trusted into a multi-GB make().
	huge := binary.AppendUvarint(nil, 1<<32)
	if _, err := DecodeUint64sDelta(huge); !errors.Is(err, ErrBadFormat) {
		t.Errorf("huge uint64 count: got %v, want ErrBadFormat", err)
	}
}

func equalSlices[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestZigzagProperty(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	// Property: any structurally valid instruction sequence round-trips.
	f := func(seed int64, n uint8) bool {
		tr := randomTrace(rand.New(rand.NewSource(seed)), int(n))
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got.Insts) != len(tr.Insts) {
			return false
		}
		for i := range tr.Insts {
			if got.Insts[i] != tr.Insts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// SectionSpans must locate every payload exactly where ReadContainer
// finds it, so corruption tooling can hit a precise CRC-covered range.
func TestSectionSpans(t *testing.T) {
	secs := []Section{
		{Tag: "AAAA", Data: []byte("alpha-payload")},
		{Tag: "BBBB", Data: []byte{}},
		{Tag: "CCCC", Data: []byte{1, 2, 3}},
	}
	var b bytes.Buffer
	if err := WriteContainer(&b, "spans-test", secs); err != nil {
		t.Fatal(err)
	}
	data := b.Bytes()
	spans, err := SectionSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != len(secs) {
		t.Fatalf("got %d spans, want %d", len(spans), len(secs))
	}
	for i, sp := range spans {
		if sp.Tag != secs[i].Tag || sp.Len != len(secs[i].Data) {
			t.Fatalf("span %d = %+v, want tag %s len %d", i, sp, secs[i].Tag, len(secs[i].Data))
		}
		if got := data[sp.Off : sp.Off+sp.Len]; !bytes.Equal(got, secs[i].Data) {
			t.Fatalf("span %d payload = %q, want %q", i, got, secs[i].Data)
		}
	}
	if _, err := SectionSpans([]byte("not a container")); err == nil {
		t.Fatal("SectionSpans accepted garbage")
	}
	if _, err := SectionSpans(data[:len(data)-2]); err == nil {
		t.Fatal("SectionSpans accepted a truncated container")
	}
}
