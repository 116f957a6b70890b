// Package core implements the paper's contribution: the Admission-
// Controlled Instruction Cache (ACIC). It provides the i-Filter (a small
// fully-associative buffer that absorbs the spatial/short-temporal burst of
// accesses to an instruction block), the two-level admission predictor
// (History Register Table + Pattern Table with queued updates), and the
// Comparison Status Holding Registers (CSHR) that resolve, after the fact,
// whether an i-Filter victim was re-accessed sooner than the i-cache
// contender it was compared against.
package core

import "math/bits"

// IFilter is the 16-slot fully-associative, LRU-replaced buffer that sits
// beside the i-cache (Fig 2). Missed blocks are placed here first; only on
// eviction from the i-Filter does a block become a candidate for i-cache
// insertion, at which point admission control runs.
//
// Slots are stored as parallel per-field arrays. A mask per block-hash
// bucket marks the valid slots whose block falls in it, so a lookup
// compares the blocks of those few slots only, in slot order; the valid
// slots also form a recency list, so the LRU victim is found without
// scanning.
type IFilter struct {
	blocks  []uint64
	next    []int64   // carried next-use time of the slot's block (0 = unknown)
	valid   slotMasks // one group: the valid slots
	byBlock slotMasks // per block bucket: the valid slots holding a block in it
	lru     recency

	Hits   uint64
	Misses uint64
}

// filterBucketBits sizes the block buckets: 64 buckets hold the paper's
// 16 (at most 32 in Fig 15) resident blocks with few collisions.
const filterBucketBits = 6

func blockBucket(block uint64) int { return int(block * 0x9E3779B97F4A7C15 >> (64 - filterBucketBits)) }

// NewIFilter creates an i-Filter with n slots (16 in the paper's default).
func NewIFilter(n int) *IFilter {
	if n <= 0 {
		panic("core: i-Filter size must be positive")
	}
	return &IFilter{
		blocks:  make([]uint64, n),
		next:    make([]int64, n),
		valid:   newSlotMasks(1, n),
		byBlock: newSlotMasks(1<<filterBucketBits, n),
		lru:     newRecency(n, 1),
	}
}

// Size returns the number of slots.
func (f *IFilter) Size() int { return len(f.blocks) }

// find returns the lowest valid slot holding block, or -1.
func (f *IFilter) find(block uint64) int {
	for k, m := range f.byBlock.of(blockBucket(block)) {
		for ; m != 0; m &= m - 1 {
			if i := k<<6 | bits.TrailingZeros64(m); f.blocks[i] == block {
				return i
			}
		}
	}
	return -1
}

// drop invalidates slot i.
func (f *IFilter) drop(i int) {
	f.valid.clear(0, i)
	f.byBlock.clear(blockBucket(f.blocks[i]), i)
	f.lru.remove(i)
}

// Contains reports whether block is resident without touching LRU state.
func (f *IFilter) Contains(block uint64) bool { return f.find(block) >= 0 }

// Access looks up block, updating LRU state and hit statistics on a hit.
// next, when non-zero, is the next-use time of block strictly after this
// access (successor-array value); the slot carries it so that, at eviction
// time, the victim's next use is known without an oracle query.
func (f *IFilter) Access(block uint64, next int64) bool {
	i := f.find(block)
	if i < 0 {
		f.Misses++
		return false
	}
	f.lru.remove(i)
	f.lru.push(0, i)
	f.next[i] = next
	f.Hits++
	return true
}

// Insert places block into the lowest free slot, or into the LRU slot if
// the filter is full. It returns the evicted block, its carried next-use
// time (0 when the filter was run without next-use tracking), and whether
// an eviction happened. The caller (the ACIC datapath) runs admission
// control on the victim.
func (f *IFilter) Insert(block uint64, next int64) (victim uint64, victimNext int64, evicted bool) {
	slot := f.valid.firstClear(0, len(f.blocks))
	if slot < 0 {
		slot = f.lru.oldest(0)
		victim, victimNext, evicted = f.blocks[slot], f.next[slot], true
		f.drop(slot)
	}
	f.blocks[slot], f.next[slot] = block, next
	f.valid.set(0, slot)
	f.byBlock.set(blockBucket(block), slot)
	f.lru.push(0, slot)
	return victim, victimNext, evicted
}

// Invalidate removes block if resident (used when a block is promoted into
// the i-cache by a path other than filter eviction, e.g. victim-cache swap).
func (f *IFilter) Invalidate(block uint64) bool {
	i := f.find(block)
	if i < 0 {
		return false
	}
	f.drop(i)
	return true
}

// Occupancy returns the number of valid slots.
func (f *IFilter) Occupancy() int { return f.valid.count() }

// StorageBits returns the metadata+data storage of the filter in bits, as
// accounted in Table I: per slot, 58 tag bits + 1 valid + 4 LRU bits of
// metadata plus the 64-byte instruction block.
func (f *IFilter) StorageBits() int {
	const metadataBits = 58 + 1 + 4
	const blockBits = 64 * 8
	return len(f.blocks) * (metadataBits + blockBits)
}
