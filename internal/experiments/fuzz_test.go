package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"acic/internal/mem"
)

// FuzzDecodeWorkloadArtifact runs the store's workload decoder over
// arbitrary bytes, which may come from a remote /blob/ store. It is seeded
// with a real cold-written entry of several windows. No input may panic,
// and an accepted input must yield a workload whose arrays agree in
// length: one entry per instruction for the trace, annotations,
// descriptors, data blocks and latency timeline, and one successor per
// block access.
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
	files, err := filepath.Glob(filepath.Join(dir, "*.actr"))
	if err != nil || len(files) != 1 {
		f.Fatalf("store holds %d artifacts (%v), want 1", len(files), err)
	}
	seed, err := os.ReadFile(files[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)

	memCfg := mem.DefaultConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := decodeWorkload(data, memCfg)
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
	})
}
