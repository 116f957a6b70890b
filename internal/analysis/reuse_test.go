package analysis

import (
	"math/rand"
	"testing"
	"testing/quick"

	"acic/internal/cache"
)

// bruteReuse is the O(n^2) reference: unique blocks between consecutive
// accesses to the same block.
func bruteReuse(blocks []uint64) []int64 {
	out := make([]int64, len(blocks))
	for i, b := range blocks {
		prev := -1
		for j := i - 1; j >= 0; j-- {
			if blocks[j] == b {
				prev = j
				break
			}
		}
		if prev < 0 {
			out[i] = InfiniteDistance
			continue
		}
		uniq := map[uint64]struct{}{}
		for j := prev + 1; j < i; j++ {
			uniq[blocks[j]] = struct{}{}
		}
		out[i] = int64(len(uniq))
	}
	return out
}

func TestReuseDistancesSimple(t *testing.T) {
	// a b c a : distance of second 'a' is 2 (b, c in between).
	got := ReuseDistances([]uint64{1, 2, 3, 1})
	want := []int64{InfiniteDistance, InfiniteDistance, InfiniteDistance, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// a a : distance 0 (pure spatial/streaming reuse).
	got = ReuseDistances([]uint64{5, 5})
	if got[1] != 0 {
		t.Fatalf("consecutive reuse distance = %d, want 0", got[1])
	}
	// a b a b a: distances 1,1,1.
	got = ReuseDistances([]uint64{1, 2, 1, 2, 1})
	for _, i := range []int{2, 3, 4} {
		if got[i] != 1 {
			t.Fatalf("alternating distances = %v", got)
		}
	}
}

func TestReuseDistancesMatchesBruteForce(t *testing.T) {
	f := func(seed int64, n uint8, spread uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		blocks := make([]uint64, int(n)+1)
		for i := range blocks {
			blocks[i] = uint64(rng.Intn(int(spread%32) + 1))
		}
		got := ReuseDistances(blocks)
		want := bruteReuse(blocks)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDistribution(t *testing.T) {
	dists := []int64{0, 0, 5, 100, 600, 5000, 20000, InfiniteDistance}
	fr := Distribution(dists, Fig1aEdges)
	// 7 finite samples; InfiniteDistance excluded.
	want := []float64{2.0 / 7, 1.0 / 7, 1.0 / 7, 1.0 / 7, 1.0 / 7, 1.0 / 7}
	for i := range want {
		if diff := fr[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("bucket %d: got %v want %v", i, fr[i], want[i])
		}
	}
	empty := Distribution([]int64{InfiniteDistance}, Fig1aEdges)
	for _, f := range empty {
		if f != 0 {
			t.Fatal("all-infinite input should give zero distribution")
		}
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		d    int64
		want int
	}{{0, 0}, {1, 1}, {16, 1}, {17, 2}, {512, 2}, {513, 3}, {1024, 3}, {1025, 4}, {10000, 4}, {10001, 5}}
	for _, c := range cases {
		if got := BucketIndex(c.d, Fig1aEdges); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestMarkovChainRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	blocks := make([]uint64, 5000)
	runs := make([]int32, len(blocks))
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(40))
		runs[i] = int32(1 + rng.Intn(4))
	}
	chain := InstReuseProfile(blocks, runs, Fig1aEdges, cache.SampleFilter{}).Chain
	for i, row := range chain {
		sum := 0.0
		for _, p := range row {
			if p < 0 || p > 1 {
				t.Fatalf("row %d has out-of-range probability %v", i, p)
			}
			sum += p
		}
		if sum != 0 && (sum < 0.999 || sum > 1.001) {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
}

func TestBursts(t *testing.T) {
	// Block 1 accessed in a burst (distances 0), then block 2 etc.
	blocks := []uint64{1, 1, 1, 2, 2, 1, 1}
	st := Bursts(blocks, 16)
	if st.AccessesTotal != 7 {
		t.Fatalf("accesses = %d", st.AccessesTotal)
	}
	if st.FracInBurst <= 0 || st.FracInBurst >= 1 {
		t.Fatalf("frac in burst = %v", st.FracInBurst)
	}
	if st.Bursts == 0 || st.MeanLength <= 1 {
		t.Fatalf("bursts=%d meanlen=%v", st.Bursts, st.MeanLength)
	}
}

func TestNextUseOracle(t *testing.T) {
	blocks := []uint64{10, 20, 10, 30, 20, 10}
	o := NewNextUseOracle(blocks)
	cases := []struct {
		block uint64
		after int64
		want  int64
	}{
		{10, -1, 0}, {10, 0, 2}, {10, 2, 5}, {10, 5, cache.NeverUsed},
		{20, 0, 1}, {20, 1, 4}, {20, 4, cache.NeverUsed},
		{30, 0, 3}, {30, 3, cache.NeverUsed},
		{99, 0, cache.NeverUsed},
	}
	for _, c := range cases {
		if got := o.NextUse(c.block, c.after); got != c.want {
			t.Errorf("NextUse(%d, %d) = %d, want %d", c.block, c.after, got, c.want)
		}
	}
}

func TestNextUseOracleProperty(t *testing.T) {
	// Property: NextUse returns the first index > after holding the block.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		blocks := make([]uint64, int(n)+1)
		for i := range blocks {
			blocks[i] = uint64(rng.Intn(8))
		}
		o := NewNextUseOracle(blocks)
		for trial := 0; trial < 20; trial++ {
			b := uint64(rng.Intn(8))
			after := int64(rng.Intn(len(blocks)+2)) - 1
			got := o.NextUse(b, after)
			want := cache.NeverUsed
			for i := int(after) + 1; i < len(blocks); i++ {
				if i >= 0 && blocks[i] == b {
					want = int64(i)
					break
				}
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
