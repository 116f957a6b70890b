package analysis

import (
	"math/rand"
	"testing"

	"acic/internal/cache"
	"acic/internal/trace"
	"acic/internal/workload"
)

// The per-instruction reference for InstReuseProfile: expand the stream to
// one block reference per instruction, filter it to the sampled
// constituencies, take every reference's stack distance, scale, and
// bucket (Fig 1a) or chain (Fig 1b) the finite ones.

// instBlockRefs returns one block reference per dynamic instruction.
func instBlockRefs(tr *trace.Trace) []uint64 {
	out := make([]uint64, len(tr.Insts))
	for i := range tr.Insts {
		out[i] = tr.Insts[i].Block()
	}
	return out
}

// expandRuns is instBlockRefs over a collapsed sequence and its runs.
func expandRuns(blocks []uint64, runs []int32) []uint64 {
	var out []uint64
	for i, b := range blocks {
		for r := int32(0); r < runs[i]; r++ {
			out = append(out, b)
		}
	}
	return out
}

// markovFromDists counts transitions between consecutive finite
// reuse-distance buckets of the same block, with dists aligned to refs.
func markovFromDists(refs []uint64, dists []int64, edges []int64) [][]float64 {
	n := len(edges) + 1
	counts := make([][]uint64, n)
	for i := range counts {
		counts[i] = make([]uint64, n)
	}
	prevBucket := make(map[uint64]int)
	for i, b := range refs {
		if dists[i] == InfiniteDistance {
			continue
		}
		cur := BucketIndex(dists[i], edges)
		if prev, ok := prevBucket[b]; ok {
			counts[prev][cur]++
		}
		prevBucket[b] = cur
	}
	out := make([][]float64, n)
	for i := range counts {
		out[i] = make([]float64, n)
		var row uint64
		for _, c := range counts[i] {
			row += c
		}
		if row == 0 {
			continue
		}
		for j, c := range counts[i] {
			out[i][j] = float64(c) / float64(row)
		}
	}
	return out
}

// refInstReuse is the reference profile of a per-instruction stream.
func refInstReuse(refs []uint64, edges []int64, f cache.SampleFilter) InstReuse {
	refs = SampleRefs(refs, f)
	dists := ReuseDistances(refs)
	for i, d := range dists {
		if d != InfiniteDistance {
			dists[i] = d * int64(f.Stride())
		}
	}
	return InstReuse{Dist: Distribution(dists, edges), Chain: markovFromDists(refs, dists, edges)}
}

// sameInstReuse reports the first difference between two profiles; the
// fractions must be bit-identical, not merely close.
func sameInstReuse(t *testing.T, what string, got, want InstReuse) {
	t.Helper()
	if len(got.Dist) != len(want.Dist) || len(got.Chain) != len(want.Chain) {
		t.Fatalf("%s: shape %d/%d buckets, want %d/%d", what, len(got.Dist), len(got.Chain), len(want.Dist), len(want.Chain))
	}
	for i := range want.Dist {
		if got.Dist[i] != want.Dist[i] {
			t.Fatalf("%s: Dist[%d] = %v, want %v", what, i, got.Dist[i], want.Dist[i])
		}
	}
	for i := range want.Chain {
		for j := range want.Chain[i] {
			if got.Chain[i][j] != want.Chain[i][j] {
				t.Fatalf("%s: Chain[%d][%d] = %v, want %v", what, i, j, got.Chain[i][j], want.Chain[i][j])
			}
		}
	}
}

func sampleFilter(t *testing.T, stride, offset int) cache.SampleFilter {
	t.Helper()
	f, err := cache.NewSampleFilter(stride, offset)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestInstReuseProfileMatchesPerInstruction is the differential test: for
// every workload profile, at full resolution and at sample strides 8 and
// 64, the collapsed-sequence pass equals the per-instruction reference.
func TestInstReuseProfileMatchesPerInstruction(t *testing.T) {
	const n = 30_000
	for pi, prof := range workload.All() {
		tr := workload.Generate(prof, n)
		blocks, runs := tr.BlockAccesses(), tr.RunLengths()
		refs := instBlockRefs(tr)
		if len(runs) != len(blocks) {
			t.Fatalf("%s: %d runs for %d block accesses", prof.Name, len(runs), len(blocks))
		}
		for _, stride := range []int{1, 8, 64} {
			f := sampleFilter(t, stride, pi%stride)
			got := InstReuseProfile(blocks, runs, Fig1aEdges, f)
			sameInstReuse(t, prof.Name, got, refInstReuse(refs, Fig1aEdges, f))
		}
	}
}

// TestInstReuseProfileRunLengths is the property test over random
// collapsed sequences: runs of length 1, first accesses, adjacent equal
// blocks, and blocks split by unsampled ones all count as the expanded
// stream does.
func TestInstReuseProfileRunLengths(t *testing.T) {
	// Block 2 twice, split by unsampled block 3 (stride 2, offset 0):
	// the filtered stream is 2×5, one first reference and four at 0.
	f := sampleFilter(t, 2, 0)
	got := InstReuseProfile([]uint64{2, 3, 2}, []int32{3, 1, 2}, Fig1aEdges, f)
	if got.Dist[0] != 1 || got.Chain[0][0] != 1 {
		t.Fatalf("split run: Dist %v, Chain[0] %v, want all at distance 0", got.Dist, got.Chain[0])
	}
	sameInstReuse(t, "split run", got, refInstReuse([]uint64{2, 2, 2, 3, 2, 2}, Fig1aEdges, f))

	// Only first accesses of length 1: nothing finite to count.
	got = InstReuseProfile([]uint64{1, 2, 3}, []int32{1, 1, 1}, Fig1aEdges, cache.SampleFilter{})
	for i, p := range got.Dist {
		if p != 0 {
			t.Fatalf("first accesses only: Dist[%d] = %v, want 0", i, p)
		}
	}

	rng := rand.New(rand.NewSource(26))
	edges := []int64{0, 1, 3, 8}
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(200)
		alphabet := 1 + rng.Intn(40)
		blocks := make([]uint64, m)
		runs := make([]int32, m)
		for i := range blocks {
			blocks[i] = uint64(rng.Intn(alphabet))
			runs[i] = 1
			if rng.Intn(2) == 0 {
				runs[i] = int32(1 + rng.Intn(6))
			}
		}
		refs := expandRuns(blocks, runs)
		for _, stride := range []int{1, 2, 4} {
			f := sampleFilter(t, stride, rng.Intn(stride))
			got := InstReuseProfile(blocks, runs, edges, f)
			sameInstReuse(t, "random", got, refInstReuse(refs, edges, f))
		}
	}
}
