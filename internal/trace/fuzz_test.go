package trace_test

import (
	"bytes"
	"slices"
	"testing"

	"acic/internal/branch"
	"acic/internal/cpu"
	"acic/internal/mem"
	"acic/internal/trace"
	"acic/internal/workload"
)

// Fuzz targets for every decoder a warm store reload runs over bytes read
// back from an artifact store. Each is seeded with the artifacts a real
// prepare writes, and each checks the same two things: a decoder never
// panics or hangs on arbitrary input, and whatever it accepts survives a
// re-encode unchanged.

// fuzzWindow is the streamed-container window of the seed artifacts.
const fuzzWindow = 512

// seedArtifacts is one small workload's artifacts as a prepare persists
// them: the containers plus the typed payloads inside them.
type seedArtifacts struct {
	containers [][]byte // trace (whole and windowed), workload artifact, derived sections only, retired v1 and INST shapes
	packed     [][]byte // INSZ payloads: the whole trace and each window
	blocks     []byte   // BLKS payload
}

func realArtifacts(f *testing.F) seedArtifacts {
	f.Helper()
	prof, _ := workload.ByName("media-streaming")
	tr := workload.Generate(prof, 2*fuzzWindow+100)
	prog := cpu.NewProgram(tr, branch.NewFrontEnd().Annotate(tr))
	prog.EnsureDataLatencies(mem.DefaultConfig())

	var s seedArtifacts
	s.blocks = trace.EncodeUint64sDelta(prog.Blocks)
	s.packed = append(s.packed, trace.EncodeInstsPacked(tr.Insts))
	var windows []trace.Section
	for insts := range slices.Chunk(tr.Insts, fuzzWindow) {
		payload := trace.EncodeInstsPacked(insts)
		s.packed = append(s.packed, payload)
		windows = append(windows, trace.Section{Tag: trace.SecInstsZ, Data: payload})
	}
	derived := []trace.Section{
		{Tag: trace.SecDesc, Data: prog.Desc},
		{Tag: trace.SecBlocks, Data: s.blocks},
	}

	container := func(name string, secs ...trace.Section) []byte {
		var b bytes.Buffer
		if err := trace.WriteContainer(&b, name, secs); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	var whole bytes.Buffer
	if err := trace.Write(&whole, tr); err != nil {
		f.Fatal(err)
	}
	// The retired shapes, which must be refused: a version-1 header, and
	// an instruction section under the old INST tag (the tag is outside
	// the section CRC, so only the reader's tag check refuses it).
	v1 := bytes.Clone(whole.Bytes())
	v1[4] = 1
	inst := bytes.Clone(whole.Bytes())
	spans, err := trace.SectionSpans(inst)
	if err != nil {
		f.Fatal(err)
	}
	copy(inst[spans[0].Off-16:], "INST")
	s.containers = [][]byte{
		whole.Bytes(),
		container(tr.Name, windows...),
		container(tr.Name, append(windows, derived...)...),
		container(tr.Name, derived...),
		v1,
		inst,
	}
	return s
}

func addSeeds(f *testing.F, seeds ...[]byte) {
	for _, s := range seeds {
		f.Add(s)
	}
}

func FuzzRead(f *testing.F) {
	addSeeds(f, realArtifacts(f).containers...)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := trace.Write(&b, tr); err != nil {
			t.Fatalf("re-encoding an accepted trace: %v", err)
		}
		again, err := trace.Read(&b)
		if err != nil {
			t.Fatalf("re-reading an accepted trace: %v", err)
		}
		if again.Name != tr.Name || !slices.Equal(again.Insts, tr.Insts) {
			t.Fatal("trace changed across a write/read round trip")
		}
	})
}

func FuzzReadContainer(f *testing.F) {
	addSeeds(f, realArtifacts(f).containers...)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, secs, err := trace.ReadContainer(bytes.NewReader(data))
		spans, spanErr := trace.SectionSpans(data)
		if err != nil {
			return
		}
		// SectionSpans skips only the CRC check, so it accepts every
		// container ReadContainer does and must locate the same payloads.
		if spanErr != nil {
			t.Fatalf("ReadContainer accepted a container SectionSpans rejects: %v", spanErr)
		}
		if len(spans) != len(secs) {
			t.Fatalf("%d spans for %d sections", len(spans), len(secs))
		}
		for i, sp := range spans {
			if sp.Tag != secs[i].Tag || !bytes.Equal(data[sp.Off:sp.Off+sp.Len], secs[i].Data) {
				t.Fatalf("span %d (%s @%d+%d) does not cover section %s", i, sp.Tag, sp.Off, sp.Len, secs[i].Tag)
			}
		}
	})
}

// fuzzRoundTrip checks that a decoded array re-encodes to bytes that
// decode to the same array.
func fuzzRoundTrip[T comparable](t *testing.T, data []byte, decode func([]byte) ([]T, error), encode func([]T) []byte) {
	t.Helper()
	vals, err := decode(data)
	if err != nil {
		return
	}
	again, err := decode(encode(vals))
	if err != nil {
		t.Fatalf("re-decoding an accepted payload: %v", err)
	}
	if !slices.Equal(again, vals) {
		t.Fatal("values changed across an encode/decode round trip")
	}
}

func FuzzDecodeUint64sDelta(f *testing.F) {
	addSeeds(f, realArtifacts(f).blocks)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip(t, data, trace.DecodeUint64sDelta, trace.EncodeUint64sDelta)
	})
}

func FuzzDecodeInstsPacked(f *testing.F) {
	addSeeds(f, realArtifacts(f).packed...)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip(t, data, trace.DecodeInstsPacked, trace.EncodeInstsPacked)
	})
}
