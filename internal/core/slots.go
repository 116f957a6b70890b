package core

import "math/bits"

// Slot bookkeeping shared by the i-Filter and the CSHR: both keep their
// entries in parallel per-field arrays indexed by slot, and find the live
// slots through the bitmasks and recency lists below instead of scanning
// every slot.

// slotMasks is a family of bitmasks over slots [0, n), one per group (the
// valid slots of the i-Filter or of a CSHR set, the slots holding a key in
// one hash bucket), each words = ceil(n/64) uint64s long.
type slotMasks struct {
	words int
	m     []uint64
}

func newSlotMasks(groups, n int) slotMasks {
	w := (n + 63) / 64
	return slotMasks{words: w, m: make([]uint64, groups*w)}
}

// of returns group g's mask words; bit i of word k is slot k*64+i.
func (x slotMasks) of(g int) []uint64 { return x.m[g*x.words : (g+1)*x.words] }

func (x slotMasks) set(g, i int)   { x.m[g*x.words+i>>6] |= 1 << (i & 63) }
func (x slotMasks) clear(g, i int) { x.m[g*x.words+i>>6] &^= 1 << (i & 63) }

// firstClear returns the lowest slot below n whose bit is clear in group
// g, or -1 when all n are set.
func (x slotMasks) firstClear(g, n int) int {
	for k, m := range x.of(g) {
		if m != ^uint64(0) {
			if i := k<<6 | bits.TrailingZeros64(^m); i < n {
				return i
			}
			return -1
		}
	}
	return -1
}

// count returns the number of set bits across all groups.
func (x slotMasks) count() int {
	n := 0
	for _, m := range x.m {
		n += bits.OnesCount64(m)
	}
	return n
}

// recency is an intrusive doubly linked recency order over slots [0, n),
// split into one or more disjoint lists (the i-Filter has one, the CSHR
// one per set). Each list is circular through its own sentinel node n+l,
// so push, remove and oldest are O(1) and need no LRU stamp scan.
type recency struct {
	n          int32
	prev, next []int32
}

func newRecency(n, lists int) recency {
	r := recency{n: int32(n), prev: make([]int32, n+lists), next: make([]int32, n+lists)}
	for l := range lists {
		s := int32(n + l)
		r.prev[s], r.next[s] = s, s
	}
	return r
}

// push appends slot i to list l as its most recent slot.
func (r *recency) push(l, i int) {
	s, j := r.n+int32(l), int32(i)
	t := r.prev[s]
	r.next[t], r.prev[j], r.next[j], r.prev[s] = j, t, s, j
}

// remove unlinks slot i from its list.
func (r *recency) remove(i int) {
	p, nx := r.prev[i], r.next[i]
	r.next[p], r.prev[nx] = nx, p
}

// oldest returns the least recent slot of list l (which must be non-empty).
func (r *recency) oldest(l int) int { return int(r.next[r.n+int32(l)]) }
