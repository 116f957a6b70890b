package analysis

import (
	"math/rand"
	"testing"

	"acic/internal/cache"
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
