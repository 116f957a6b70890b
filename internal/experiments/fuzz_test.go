package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"acic/internal/mem"
	"acic/internal/trace"
)

// FuzzDecodeWorkloadArtifact runs the store's workload decoder over
// arbitrary bytes, which may come from a remote /blob/ store. It is seeded
// with a real cold-written entry of several windows, read from the
// store's schema subdirectory, and with that entry carrying a data level
// on a non-memory instruction, which both decodes must refuse. Every
// input goes through both the full decode and the simulator-only one a
// Suite uses. No input may panic, both must accept and refuse the same
// inputs, and an accepted input must yield workloads whose arrays agree in
// length (one entry per instruction for the trace, annotations,
// descriptors, data blocks and latency timeline, one successor per block
// access) and whose descriptors (data-level bits included) and blocks are
// equal. The simulator-only workload keeps no Inst records, data-block
// array, annotations, latency timeline or successor array.
func FuzzDecodeWorkloadArtifact(f *testing.F) {
	dir := f.TempDir()
	pl, err := NewPipeline(PipelineConfig{N: 2000, Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	pl.window = 512
	if _, err := pl.Workload("media-streaming"); err != nil {
		f.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, SchemaDir(), "*.actr"))
	if err != nil || len(files) != 1 {
		f.Fatalf("store holds %d artifacts (%v), want 1", len(files), err)
	}
	seed, err := os.ReadFile(files[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(levelOnNonMemory(f, seed))

	memCfg := mem.DefaultConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := decodeWorkload(data, memCfg, false)
		sim, simErr := decodeWorkload(data, memCfg, true)
		if (err == nil) != (simErr == nil) {
			t.Fatalf("full decode error %v, simulator-only decode error %v", err, simErr)
		}
		if err != nil {
			return
		}
		n := len(w.Trace.Insts)
		if len(w.Ann) != n || w.Prog.Len() != n || len(w.Prog.MemBlk) != n || len(w.Prog.DataLat) != n {
			t.Fatalf("lengths disagree: %d insts, %d annotations, %d descriptors, %d data blocks, %d latencies",
				n, len(w.Ann), w.Prog.Len(), len(w.Prog.MemBlk), len(w.Prog.DataLat))
		}
		if len(w.Blocks) != len(w.Prog.Blocks) || len(w.NextAt) != len(w.Blocks) {
			t.Fatalf("%d block accesses (program %d), %d successors", len(w.Blocks), len(w.Prog.Blocks), len(w.NextAt))
		}
		if sim.Trace.Insts != nil || sim.Prog.MemBlk != nil || sim.Ann != nil || sim.Prog.Ann != nil || sim.Prog.DataLat != nil || sim.NextAt != nil {
			t.Fatalf("simulator-only decode keeps %d insts, %d data blocks, %d annotations, %d latencies and %d successors",
				len(sim.Trace.Insts), len(sim.Prog.MemBlk), len(sim.Prog.Ann), len(sim.Prog.DataLat), len(sim.NextAt))
		}
		if !slices.Equal(sim.Prog.Desc, w.Prog.Desc) || !slices.Equal(sim.Blocks, w.Blocks) {
			t.Fatal("simulator-only decode differs from the full decode in descriptors or blocks")
		}
	})
}

// levelOnNonMemory returns entry with data-level bits set on the
// descriptor of its first instruction that is neither a load nor a store,
// re-encoded so every section CRC holds: only the level check can refuse
// it.
func levelOnNonMemory(f *testing.F, entry []byte) []byte {
	name, secs, err := trace.ParseContainer(entry)
	if err != nil {
		f.Fatal(err)
	}
	insts, err := trace.InstsFromSections(secs)
	if err != nil {
		f.Fatal(err)
	}
	i := slices.IndexFunc(insts, func(in trace.Inst) bool { return !in.Class.IsMem() })
	for k, s := range secs {
		if s.Tag == trace.SecDesc && i >= 0 {
			desc := slices.Clone(s.Data)
			desc[i] |= 0xc0 // the data-level bits, 6-7
			secs[k].Data = desc
		}
	}
	var b bytes.Buffer
	if err := trace.WriteContainer(&b, name, secs); err != nil {
		f.Fatal(err)
	}
	for _, simOnly := range []bool{false, true} {
		if _, err := decodeWorkload(b.Bytes(), mem.DefaultConfig(), simOnly); err == nil {
			f.Fatalf("a level on non-memory instruction %d decoded (simOnly %v)", i, simOnly)
		}
	}
	return b.Bytes()
}
