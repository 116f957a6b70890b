// Package analysis provides the trace-characterization machinery behind the
// paper's motivation and oracle experiments: LRU stack (reuse) distances at
// instruction-block granularity (Fig 1a), Markov chains over reuse-distance
// ranges (Fig 1b), burst statistics, and the next-use oracle that powers
// Belady's OPT replacement and the OPT-bypass scheme.
package analysis

import (
	"slices"

	"acic/internal/cache"
	"acic/internal/flat"
)

// InfiniteDistance marks a first-ever access to a block (no previous use).
const InfiniteDistance = int64(1) << 62

// ReuseDistances computes, for each access in the block sequence, the LRU
// stack distance to the previous access of the same block: the number of
// unique blocks referenced between the two accesses (0 means the block was
// re-accessed with nothing else in between — pure spatial/streaming reuse).
// First accesses get InfiniteDistance.
//
// The implementation is the classic Fenwick-tree-over-positions algorithm
// and runs in O(n log n).
func ReuseDistances(blocks []uint64) []int64 {
	n := len(blocks)
	out := make([]int64, n)
	bit := newFenwick(n + 1)
	last := make(map[uint64]int, 1024)
	for i, b := range blocks {
		if j, ok := last[b]; ok {
			// Unique blocks between j and i = number of marked positions
			// in (j, i): each marked position is the latest access of a
			// distinct block.
			out[i] = int64(bit.rangeSum(j+1, i-1))
			bit.add(j+1, -1) // block b's old position is no longer latest
		} else {
			out[i] = InfiniteDistance
		}
		bit.add(i+1, 1)
		last[b] = i
	}
	return out
}

// fenwick is a 1-indexed binary indexed tree over positions. A node
// counts marked positions, so int32 holds any sequence shorter than 2^31.
type fenwick struct{ tree []int32 }

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int32, n+1)} }

func (f *fenwick) add(i int, delta int32) {
	for ; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

func (f *fenwick) prefix(i int) int {
	s := 0
	for ; i > 0; i -= i & (-i) {
		s += int(f.tree[i])
	}
	return s
}

// rangeSum sums positions [lo, hi] (0-indexed inclusive) of marked counts.
func (f *fenwick) rangeSum(lo, hi int) int {
	if hi < lo {
		return 0
	}
	return f.prefix(hi+1) - f.prefix(lo)
}

// Fig1aEdges are the reuse-distance bucket upper bounds used by Figure 1a:
// 0, 1-16, 16-512, 512-1024, 1024-10000, and >10000 (overflow; the paper
// folds first accesses out of the distribution, as do we).
var Fig1aEdges = []int64{0, 16, 512, 1024, 10000}

// BucketIndex returns the Fig 1a bucket for a reuse distance.
func BucketIndex(d int64, edges []int64) int {
	for i, e := range edges {
		if d <= e {
			return i
		}
	}
	return len(edges)
}

// Distribution buckets reuse distances into the given edges (plus overflow)
// and returns per-bucket fractions over all finite-distance accesses.
func Distribution(dists []int64, edges []int64) []float64 {
	counts := make([]uint64, len(edges)+1)
	var total uint64
	for _, d := range dists {
		if d == InfiniteDistance {
			continue
		}
		counts[BucketIndex(d, edges)]++
		total++
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// InstReuse is the reuse profile at instruction granularity, the
// granularity of Fig 1a/1b: every instruction is one reference to its
// block, so consecutive instructions in the same block are distance-0
// re-references (the "spatial locality" bucket that dominates with ~85%
// of references).
type InstReuse struct {
	// Dist is the Fig 1a distribution: per-bucket fractions over all
	// finite-distance references (first references are folded out).
	Dist []float64
	// Chain is the Fig 1b Markov chain: row i is the distribution of a
	// block's next reference's bucket, given its current one is in i.
	Chain [][]float64
}

// InstReuseProfile computes the instruction-granularity reuse profile from
// the collapsed block-access sequence the simulators run on (blocks) and
// each access's run length (runs[i] consecutive instructions in blocks[i],
// at least 1), without expanding the per-instruction stream: the first
// reference of a run has the collapsed sequence's stack distance (repeats
// add no distinct block in between), and its runs[i]-1 repeats are
// distance 0. Under an enabled filter only sampled blocks are referenced
// and each distance is the sampled-unique count scaled by the stride
// (unique blocks spread uniformly over constituencies, so sampled-unique
// × stride is an unbiased estimate of the true count); a run split by
// unsampled blocks then continues at distance 0. Counts, and so
// fractions, equal those of bucketing every instruction's reference.
func InstReuseProfile(blocks []uint64, runs []int32, edges []int64, f cache.SampleFilter) InstReuse {
	nb := len(edges) + 1
	zero := BucketIndex(0, edges)
	counts := make([]uint64, nb)
	trans := make([]uint64, nb*nb)
	var total uint64

	sampled := 0
	for _, b := range blocks {
		if f.Sampled(b) {
			sampled++
		}
	}
	scale := int64(f.Stride())
	bit := newFenwick(sampled + 1)
	ids := flat.NewTable(1024) // block -> dense id + 1
	var last []int32           // per id: latest sampled position
	var prev []int32           // per id: bucket of the latest finite-distance reference, -1 before one
	k := 0
	for i, b := range blocks {
		if !f.Sampled(b) {
			continue
		}
		cur := -1 // bucket of the run's first reference; -1 on a first access
		id := ids.Get(b) - 1
		if id < 0 {
			id = int32(len(last))
			ids.Put(b, id+1)
			last = append(last, 0)
			prev = append(prev, -1)
		} else {
			// Marked positions strictly between the previous access j
			// and k are the latest accesses of the distinct blocks
			// referenced in between.
			j := int(last[id])
			cur = BucketIndex(int64(bit.rangeSum(j+1, k-1))*scale, edges)
			counts[cur]++
			total++
			if p := prev[id]; p >= 0 {
				trans[int(p)*nb+cur]++
			}
			bit.add(j+1, -1)
		}
		bit.add(k+1, 1)
		last[id] = int32(k)
		k++
		if repeats := uint64(runs[i] - 1); repeats > 0 {
			counts[zero] += repeats
			total += repeats
			// A first access has no finite bucket to leave from: its
			// first repeat only starts the block's chain.
			if cur >= 0 {
				trans[cur*nb+zero]++
			}
			trans[zero*nb+zero] += repeats - 1
			cur = zero
		}
		if cur >= 0 {
			prev[id] = int32(cur)
		}
	}

	out := InstReuse{Dist: make([]float64, nb), Chain: make([][]float64, nb)}
	if total > 0 {
		for i, c := range counts {
			out.Dist[i] = float64(c) / float64(total)
		}
	}
	for i := range out.Chain {
		out.Chain[i] = make([]float64, nb)
		row := trans[i*nb : (i+1)*nb]
		var sum uint64
		for _, c := range row {
			sum += c
		}
		if sum == 0 {
			continue
		}
		for j, c := range row {
			out.Chain[i][j] = float64(c) / float64(sum)
		}
	}
	return out
}

// BurstStats summarizes the burstiness of accesses to instruction blocks:
// a burst is a maximal run of accesses to the same block whose successive
// reuse distances stay within threshold (the i-Filter's reach).
type BurstStats struct {
	Bursts        uint64
	AccessesTotal uint64
	MeanLength    float64 // accesses per burst
	FracInBurst   float64 // fraction of accesses that are intra-burst re-uses
}

// Bursts computes burst statistics at the given intra-burst distance
// threshold (16, the i-Filter size, in the paper's framing).
func Bursts(blocks []uint64, threshold int64) BurstStats {
	dists := ReuseDistances(blocks)
	var st BurstStats
	burstLen := make(map[uint64]uint64)
	var lengths []uint64
	for i, b := range blocks {
		st.AccessesTotal++
		if dists[i] != InfiniteDistance && dists[i] <= threshold {
			burstLen[b]++
			st.FracInBurst++
		} else {
			if l, ok := burstLen[b]; ok && l > 0 {
				lengths = append(lengths, l+1)
			}
			burstLen[b] = 0
			st.Bursts++
		}
	}
	for _, l := range burstLen {
		if l > 0 {
			lengths = append(lengths, l+1)
		}
	}
	if st.AccessesTotal > 0 {
		st.FracInBurst /= float64(st.AccessesTotal)
	}
	var sum uint64
	for _, l := range lengths {
		sum += l
	}
	if len(lengths) > 0 {
		st.MeanLength = float64(sum) / float64(len(lengths))
	}
	return st
}

// NextUseArray precomputes the successor array of a block-access sequence:
// out[i] is the index of the next access to blocks[i] strictly after i, or
// cache.NeverUsed when the block is never accessed again. One backward O(n)
// pass. It is the reference the cold prepare's NextUseBuilder is pinned
// against and what the store's NXTA section carries; the simulators read
// the same values through NextUseOracle.Cursor.
func NextUseArray(blocks []uint64) []int64 {
	out := make([]int64, len(blocks))
	last := make(map[uint64]int64, 1024)
	for i := len(blocks) - 1; i >= 0; i-- {
		if j, ok := last[blocks[i]]; ok {
			out[i] = j
		} else {
			out[i] = cache.NeverUsed
		}
		last[blocks[i]] = int64(i)
	}
	return out
}

// NextUseOracle answers "when is block b next accessed strictly after
// time t" over a fixed block-access sequence; it powers OPT replacement
// (Belady) and OPT bypass. It is a compressed-sparse-row index: every
// distinct block is one row, and row r's access positions, ascending,
// are pos[start[r]:start[r+1]].
type NextUseOracle struct {
	rows  *flat.Table // block -> row + 1
	start []int32
	pos   []int32
}

// NewNextUseOracle indexes the block-access sequence: one counting pass
// sizes the rows and one fill pass writes every position in order.
// Sequences longer than 2^31 accesses are not supported (far beyond any
// simulated trace here).
func NewNextUseOracle(blocks []uint64) *NextUseOracle {
	rows := flat.NewTable(1024)
	// start[r+1] counts row r's accesses until the prefix sum below.
	start := make([]int32, 1, 1025)
	for _, b := range blocks {
		r := rows.Get(b)
		if r == 0 {
			start = append(start, 0)
			r = int32(len(start) - 1)
			rows.Put(b, r)
		}
		start[r]++
	}
	for r := 1; r < len(start); r++ {
		start[r] += start[r-1]
	}
	next := append([]int32(nil), start[:len(start)-1]...)
	pos := make([]int32, len(blocks))
	for i, b := range blocks {
		r := rows.Get(b) - 1
		pos[next[r]] = int32(i)
		next[r]++
	}
	return &NextUseOracle{rows: rows, start: start, pos: pos}
}

// NextUse returns the access index of the first access to block strictly
// after index `after`, or cache.NeverUsed if none exists.
func (o *NextUseOracle) NextUse(block uint64, after int64) int64 {
	r := o.rows.Get(block)
	if r == 0 {
		return cache.NeverUsed
	}
	return o.at(o.after(r, after), r)
}

// after returns the index into pos of row r's first position strictly
// after `after` (o.start[r] when there is none; r is the row + 1, as
// rows stores it). The binary search is hand-rolled: sort.Search costs a
// closure call per probe, and this query sits on the prefetch-fill path
// of the oracle schemes.
func (o *NextUseOracle) after(r int32, after int64) int32 {
	lo, hi := o.start[r-1], o.start[r]
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if int64(o.pos[mid]) > after {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// at returns the access index at pos[k], or cache.NeverUsed when k is
// past row r's end.
func (o *NextUseOracle) at(k, r int32) int64 {
	if k == o.start[r] {
		return cache.NeverUsed
	}
	return int64(o.pos[k])
}

// Func adapts the oracle to the cache.AccessContext.NextUse signature.
func (o *NextUseOracle) Func() func(uint64, int64) int64 { return o.NextUse }

// NextUseCursor answers the simulators' dominant oracle query, "when is
// the block demanded at access i used next", for one run. It keeps one
// int32 per row: the index into the oracle's positions of the block's
// next expected demand. A run demands each block's accesses in sequence
// order (a set-sampled run skips whole blocks, never single accesses of
// a block it simulates), so a query almost always finds its access under
// the row's cursor and answers with the next position in the row, in
// O(1) past the row lookup. Any other query (repeated, out of order, or
// an access index that is not the block's) answers by NextUse's binary
// search and moves the row's cursor to the position it found, so every
// answer equals NextUse(block, i) whatever the query order.
//
// A cursor is state of one run: it is not safe for concurrent use, and
// each simulation takes its own (Cursor). The oracle itself is shared
// read-only.
type NextUseCursor struct {
	o    *NextUseOracle
	next []int32 // per row: index into o.pos of the next expected demand
}

// Cursor returns a fresh cursor over the oracle, every row at its first
// access.
func (o *NextUseOracle) Cursor() *NextUseCursor {
	return &NextUseCursor{o: o, next: slices.Clone(o.start[:len(o.start)-1])}
}

// Next returns the access index of the first access to block strictly
// after index i, or cache.NeverUsed if none exists: NextUse(block, i).
func (c *NextUseCursor) Next(block uint64, i int64) int64 {
	o := c.o
	r := o.rows.Get(block)
	if r == 0 {
		return cache.NeverUsed
	}
	k := c.next[r-1]
	if k < o.start[r] && int64(o.pos[k]) == i {
		k++
	} else {
		k = o.after(r, i)
	}
	c.next[r-1] = k
	return o.at(k, r)
}
