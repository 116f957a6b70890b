package analysis

import (
	"math/rand"
	"testing"

	"acic/internal/cache"
	"acic/internal/workload"
)

// TestNextUseArrayMatchesOracle pins the successor array to the
// reference oracle: for every access i, next[i] must equal the oracle's
// answer for (blocks[i], after=i).
func TestNextUseArrayMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5000)
		blocks := make([]uint64, n)
		for i := range blocks {
			blocks[i] = uint64(rng.Intn(1 + trial*trial*11)) // past 1,536 distinct blocks the oracle's row table grows
		}
		oracle := NewNextUseOracle(blocks)
		next := NextUseArray(blocks)
		if len(next) != n {
			t.Fatalf("trial %d: len = %d, want %d", trial, len(next), n)
		}
		for i, b := range blocks {
			if want := oracle.NextUse(b, int64(i)); next[i] != want {
				t.Fatalf("trial %d: next[%d] = %d, oracle = %d (block %d)", trial, i, next[i], want, b)
			}
		}
	}
}

// TestNextUseArrayBasics checks the hand-verifiable shape.
func TestNextUseArrayBasics(t *testing.T) {
	next := NextUseArray([]uint64{7, 8, 7, 9, 8, 7})
	want := []int64{2, 4, 5, cache.NeverUsed, cache.NeverUsed, cache.NeverUsed}
	for i := range want {
		if next[i] != want[i] {
			t.Errorf("next[%d] = %d, want %d", i, next[i], want[i])
		}
	}
	if len(NextUseArray(nil)) != 0 {
		t.Error("empty sequence should give empty successor array")
	}
}

// TestNextUseCursorMatchesOracle pins the in-order cursor the simulators
// read to the successor array and the oracle over every workload profile:
// in sequence order, in a set-sampled run's order (only the accesses of
// one constituency), with every query repeated, in a shuffled order, and
// for arbitrary (block, after) pairs that are not a demand at all. Each
// answer must equal NextUseArray's entry and NextUse's answer, whatever
// the queries before it moved the cursor to.
func TestNextUseCursorMatchesOracle(t *testing.T) {
	sample, err := cache.NewSampleFilter(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, prof := range workload.All() {
		blocks := workload.Generate(prof, 20_000).BlockAccesses()
		o := NewNextUseOracle(blocks)
		next := NextUseArray(blocks)
		check := func(order string, c *NextUseCursor, i int) {
			t.Helper()
			got := c.Next(blocks[i], int64(i))
			if got != next[i] || got != o.NextUse(blocks[i], int64(i)) {
				t.Fatalf("%s %s: Next(access %d) = %d, successor array %d, oracle %d",
					prof.Name, order, i, got, next[i], o.NextUse(blocks[i], int64(i)))
			}
		}

		c := o.Cursor()
		for i := range blocks {
			check("in order", c, i)
		}
		c, sampled := o.Cursor(), 0
		for i, b := range blocks {
			if sample.Sampled(b) {
				check("sampled", c, i)
				sampled++
			}
		}
		if sampled == 0 || sampled == len(blocks) {
			t.Fatalf("%s: the sample filter kept %d of %d accesses", prof.Name, sampled, len(blocks))
		}
		c = o.Cursor()
		for i := range blocks {
			check("repeated", c, i)
			check("repeated", c, i)
		}
		c = o.Cursor()
		for _, i := range rng.Perm(len(blocks)) {
			check("shuffled", c, i)
		}
		c = o.Cursor()
		for range 2000 {
			b, after := blocks[rng.Intn(len(blocks))], int64(rng.Intn(len(blocks)+2))-1
			if got, want := c.Next(b, after), o.NextUse(b, after); got != want {
				t.Fatalf("%s: Next(block %d, after %d) = %d, oracle %d", prof.Name, b, after, got, want)
			}
			check("interleaved", c, rng.Intn(len(blocks)))
		}
		if got := c.Next(^uint64(0), 0); got != cache.NeverUsed {
			t.Fatalf("%s: an absent block's next use = %d, want NeverUsed", prof.Name, got)
		}
	}
}
