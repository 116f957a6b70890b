package analysis

import "acic/internal/cache"

// Set-sampled estimators for the trace-characterization analyses: the
// quick-look lane runs them over the sampled set constituencies only and
// scales the unique-block counts back up by the stride, the same
// methodology the sampled simulator applies to miss counters
// (DESIGN.md §10). The full-analysis functions remain the reference;
// InstReuseProfile takes the filter itself.

// SampleRefs filters a block-reference sequence down to the sampled
// constituencies. With the zero filter it returns the input unchanged.
func SampleRefs(blocks []uint64, f cache.SampleFilter) []uint64 {
	if !f.Enabled() {
		return blocks
	}
	out := make([]uint64, 0, len(blocks)/f.Stride()+1)
	for _, b := range blocks {
		if f.Sampled(b) {
			out = append(out, b)
		}
	}
	return out
}

// SampledMissRatioCurve estimates the fully-associative LRU miss-ratio
// curve from the sampled constituencies (cf. MissRatioCurve): an access
// hits a capacity-C cache iff its estimated stack distance — the unique
// blocks observed between consecutive uses within the sampled
// constituencies, scaled by the stride — is below C.
func SampledMissRatioCurve(blocks []uint64, capacities []int, f cache.SampleFilter) []float64 {
	if !f.Enabled() {
		return MissRatioCurve(blocks, capacities)
	}
	dists := ReuseDistances(SampleRefs(blocks, f))
	scale := int64(f.Stride())
	for i, d := range dists {
		if d != InfiniteDistance {
			dists[i] = d * scale
		}
	}
	return missRatioFromDists(dists, capacities)
}
