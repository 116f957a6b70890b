package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// alignedTrace builds a trace shaped like the generator's output: 4-byte
// PCs, sequential ALU runs, block-local branches, delta-friendly data
// addresses. This is the regime the packed encoding is built for.
func alignedTrace(rng *rand.Rand, n int) *Trace {
	tr := &Trace{Name: "aligned"}
	pc := uint64(0x4000_0000)
	mem := uint64(0x1_0000_0000)
	for len(tr.Insts) < n {
		run := 1 + rng.Intn(10)
		for i := 0; i < run && len(tr.Insts) < n; i++ {
			tr.Insts = append(tr.Insts, Inst{PC: pc, Class: ClassALU})
			pc += 4
		}
		if len(tr.Insts) >= n {
			break
		}
		switch rng.Intn(4) {
		case 0:
			tgt := pc + uint64(rng.Intn(64))*4
			taken := rng.Intn(2) == 0
			tr.Insts = append(tr.Insts, Inst{PC: pc, Class: ClassCondBranch, Target: tgt, Taken: taken})
			if taken {
				pc = tgt
			} else {
				pc += 4
			}
		case 1:
			mem += uint64(rng.Intn(1<<12)) - 1<<11
			tr.Insts = append(tr.Insts, Inst{PC: pc, Class: ClassLoad, MemAddr: mem})
			pc += 4
		case 2:
			tr.Insts = append(tr.Insts, Inst{PC: pc, Class: ClassStore, MemAddr: mem + 64})
			mem += 64
			pc += 4
		default:
			tgt := pc - uint64(rng.Intn(32))*4
			tr.Insts = append(tr.Insts, Inst{PC: pc, Class: ClassJump, Target: tgt, Taken: true})
			pc = tgt
		}
	}
	tr.Insts = tr.Insts[:n]
	return tr
}

func TestPackedInstsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 17, 1000, 20000} {
		for _, mk := range []func(*rand.Rand, int) *Trace{alignedTrace, randomTrace} {
			tr := mk(rng, n)
			got, err := DecodeInstsPacked(EncodeInstsPacked(tr.Insts))
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if len(got) != len(tr.Insts) {
				t.Fatalf("n=%d: decoded %d insts", n, len(got))
			}
			for i := range tr.Insts {
				if got[i] != tr.Insts[i] {
					t.Fatalf("n=%d inst %d: got %+v want %+v", n, i, got[i], tr.Insts[i])
				}
			}
		}
	}
}

func TestPackedInstsBeatsOldEncoding(t *testing.T) {
	// On generator-shaped streams the packed payload must take at most half
	// the 2.54 B/inst the retired varint-record INST encoding spent on this
	// same stream; this is the whole point of SecInstsZ.
	const n, maxBytesPerInst = 50000, 1.25
	tr := alignedTrace(rand.New(rand.NewSource(9)), n)
	if got := float64(len(EncodeInstsPacked(tr.Insts))) / n; got > maxBytesPerInst {
		t.Errorf("packed %.3f B/inst, want at most %.2f", got, maxBytesPerInst)
	}
}

func TestPackedInstsChunkedConcatenation(t *testing.T) {
	// Encoding in windows and appending the decodes must equal the whole:
	// each section resets its prevPC/prevMem carry.
	tr := alignedTrace(rand.New(rand.NewSource(21)), 10007)
	for _, window := range []int{1, 7, 4096, len(tr.Insts), len(tr.Insts) + 1000} {
		var got []Inst
		for lo := 0; lo < len(tr.Insts); lo += window {
			hi := min(lo+window, len(tr.Insts))
			var err error
			got, err = AppendInstsPacked(got, EncodeInstsPacked(tr.Insts[lo:hi]))
			if err != nil {
				t.Fatalf("window=%d: %v", window, err)
			}
		}
		if len(got) != len(tr.Insts) {
			t.Fatalf("window=%d: %d insts", window, len(got))
		}
		for i := range tr.Insts {
			if got[i] != tr.Insts[i] {
				t.Fatalf("window=%d inst %d: got %+v want %+v", window, i, got[i], tr.Insts[i])
			}
		}
	}
}

func TestPackedInstsRejectsCorruption(t *testing.T) {
	tr := alignedTrace(rand.New(rand.NewSource(5)), 500)
	clean := EncodeInstsPacked(tr.Insts)
	for _, cut := range []int{1, len(clean) / 2, len(clean) - 1} {
		if _, err := DecodeInstsPacked(clean[:cut]); !errors.Is(err, ErrBadFormat) {
			t.Errorf("truncated at %d: got %v, want ErrBadFormat", cut, err)
		}
	}
	// A run longer than the remaining count is corrupt.
	bad := binary.AppendUvarint(nil, 2)
	bad = binary.AppendUvarint(bad, 5<<packedOpShift|packedOpRun)
	if _, err := DecodeInstsPacked(bad); !errors.Is(err, ErrBadFormat) {
		t.Errorf("oversized run: got %v, want ErrBadFormat", err)
	}
	// A count far beyond any plausible payload fails before allocating.
	huge := binary.AppendUvarint(nil, 1<<40)
	if _, err := DecodeInstsPacked(huge); !errors.Is(err, ErrBadFormat) {
		t.Errorf("huge count: got %v, want ErrBadFormat", err)
	}
}

// TestPackedInstsBoundsExpansion: runs longer than maxPackedRun encode as
// several tokens and round-trip, while a payload claiming more records
// than its bytes can encode — a forged count, or an over-long run token —
// fails before decoding instead of expanding into gigabytes of records.
func TestPackedInstsBoundsExpansion(t *testing.T) {
	var insts []Inst
	for i := range 3*maxPackedRun + 5 {
		insts = append(insts, Inst{PC: 4 * uint64(i+1), Class: ClassALU})
	}
	got, err := DecodeInstsPacked(EncodeInstsPacked(insts))
	if err != nil || len(got) != len(insts) || got[len(got)-1] != insts[len(insts)-1] {
		t.Fatalf("long ALU run: %d of %d insts round-tripped (%v)", len(got), len(insts), err)
	}

	bomb := binary.AppendUvarint(nil, 1<<32)
	bomb = binary.AppendUvarint(bomb, (1<<32)<<packedOpShift|packedOpRun)
	if _, err := DecodeInstsPacked(bomb); !errors.Is(err, ErrBadFormat) {
		t.Errorf("count beyond the payload's capacity: got %v, want ErrBadFormat", err)
	}
	long := binary.AppendUvarint(nil, maxPackedRun+1)
	long = binary.AppendUvarint(long, (maxPackedRun+1)<<packedOpShift|packedOpRun)
	long = append(long, make([]byte, 8)...)
	if _, err := DecodeInstsPacked(long); !errors.Is(err, ErrBadFormat) {
		t.Errorf("run of %d: got %v, want ErrBadFormat", maxPackedRun+1, err)
	}
}

func TestReadRefusesOldInstSection(t *testing.T) {
	// Containers written before SecInstsZ carry a single INST section. That
	// codec was retired with schema 4, so such a container holds no
	// instruction stream Read accepts.
	tr := randomTrace(rand.New(rand.NewSource(13)), 800)
	var buf bytes.Buffer
	if err := WriteContainer(&buf, tr.Name, []Section{{Tag: "INST", Data: EncodeInstsPacked(tr.Insts)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("INST container: got %v, want ErrBadFormat", err)
	}
}

func TestContainerWriterStreamsSections(t *testing.T) {
	tr := alignedTrace(rand.New(rand.NewSource(31)), 9000)
	path := filepath.Join(t.TempDir(), "stream.actr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := NewContainerWriter(f, tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	const window = 2048
	for lo := 0; lo < len(tr.Insts); lo += window {
		hi := min(lo+window, len(tr.Insts))
		if err := cw.WriteSection(SecInstsZ, EncodeInstsPacked(tr.Insts[lo:hi])); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.WriteSection(SecBlocks, EncodeUint64sDelta([]uint64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The streamed file must read back as one trace...
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || !equalSlices(got.Insts, tr.Insts) {
		t.Fatal("streamed container did not round-trip through Read")
	}
	// ...and as a container with the patched section count and the trailing
	// non-instruction section intact.
	name, secs, err := ReadContainer(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	wantSecs := (len(tr.Insts)+window-1)/window + 1
	if name != tr.Name || len(secs) != wantSecs {
		t.Fatalf("container: name %q, %d sections (want %d)", name, len(secs), wantSecs)
	}
	if blocks, ok := FindSection(secs, SecBlocks); !ok {
		t.Error("BLKS section lost")
	} else if got, err := DecodeUint64sDelta(blocks); err != nil || !equalSlices(got, []uint64{1, 2, 3}) {
		t.Errorf("BLKS payload mangled: %v, %v", got, err)
	}
}

func TestContainerWriterEnforcesLimits(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "x.actr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cw, err := NewContainerWriter(f, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteSection("TOOLONG", nil); err == nil {
		t.Error("bad tag length accepted")
	}
	if err := cw.WriteSection(SecInstsZ, EncodeInstsPacked(nil)); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
}
