package core

import "math/bits"

// CSHR — Comparison Status Holding Registers (Fig 5/7). Inspired by MSHRs,
// the CSHR tracks pairs of (i-Filter victim, i-cache contender) partial tags
// whose "who is re-accessed first" comparison is still unresolved. It is
// organized set-associatively: 256 entries in 8 sets of 32 ways, indexed by
// the top m=3 bits of the i-cache set index (victim and contender always
// map to the same i-cache set, hence the same CSHR set). Each set is LRU
// replaced. An entry evicted before resolving is reported to the caller,
// and what it teaches the predictor is the ACIC's EvictTrain choice: by
// default (EvictTrainNone) nothing.
//
// State is stored as parallel per-field arrays (victim tags, contender
// tags, birth times), each Sets*Ways long with set si at
// [si*Ways, (si+1)*Ways), plus per-set bitmasks over the ways. Valid ways
// form one mask per set, and each set also keeps one mask per tag bucket
// (the low bits of a partial tag) of the valid ways whose victim or
// contender tag falls in that bucket. A lookup reads its bucket's mask and
// compares the tags of those few ways only, so a fetch costs the same
// whether the set holds two live comparisons or thirty-two. Insertion finds
// a free way from the valid mask; entries are never touched after
// insertion, so a set's LRU entry is its oldest insertion, kept as the head
// of a per-set recency list.

// CSHRConfig sizes the CSHR. Defaults follow Table I / Section III-C.
type CSHRConfig struct {
	Sets    int // 8
	Ways    int // 32
	TagBits int // partial tag width (12)
}

// DefaultCSHRConfig matches the paper: 256 entries as 8 sets x 32 ways with
// 12-bit partial tags.
func DefaultCSHRConfig() CSHRConfig { return CSHRConfig{Sets: 8, Ways: 32, TagBits: 12} }

// Entries returns total capacity.
func (c CSHRConfig) Entries() int { return c.Sets * c.Ways }

// Resolution is a resolved comparison delivered to the predictor.
type Resolution struct {
	VictimTag uint32
	// Sooner is true when the i-Filter victim was re-accessed before its
	// contender. A capacity eviction (Evicted) reports Sooner=true, the
	// paper's "benefit of the doubt"; the ACIC trains on it only under
	// EvictTrainAdmit, and the default EvictTrainNone discards it.
	Sooner bool
	// Evicted marks resolutions synthesized by capacity eviction.
	Evicted bool
	// Age is the number of lookups in this CSHR set between insertion and
	// resolution (Fig 6's "number of comparisons during entry lifetime").
	Age int64
}

// CSHR is the set-associative comparison tracker.
type CSHR struct {
	cfg        CSHRConfig
	victim     []uint32  // victim partial tag per entry
	contender  []uint32  // contender partial tag per entry
	born       []int64   // set lookup count at insertion (Fig 6 statistics)
	lru        recency   // per-set insertion order of the valid entries
	valid      slotMasks // per set: its valid ways
	byTag      slotMasks // per (set, tag bucket): ways with a victim or contender tag in it
	bucketBits int
	tagMask    uint32
	setsLog2   int
	lookups    []int64 // per-set lookup counters (for entry age accounting)

	// Stats.
	Inserts         uint64
	ResolvedVictim  uint64 // resolved because the victim tag was fetched
	ResolvedContend uint64 // resolved because the contender tag was fetched
	EvictedUnres    uint64 // evicted before resolution
}

// cshrBucketBits sizes the per-set tag buckets: 64 buckets spread a set's
// at most 2*Ways live tags (64 at the paper's 32 ways) about one per bucket.
const cshrBucketBits = 6

// NewCSHR creates a CSHR from cfg.
func NewCSHR(cfg CSHRConfig) *CSHR {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic("core: CSHR sets must be a positive power of two")
	}
	if cfg.Ways <= 0 || cfg.TagBits <= 0 || cfg.TagBits > 32 {
		panic("core: bad CSHR geometry")
	}
	n := cfg.Entries()
	bucketBits := min(cfg.TagBits, cshrBucketBits)
	return &CSHR{
		cfg:        cfg,
		victim:     make([]uint32, n),
		contender:  make([]uint32, n),
		born:       make([]int64, n),
		lru:        newRecency(n, cfg.Sets),
		valid:      newSlotMasks(cfg.Sets, cfg.Ways),
		byTag:      newSlotMasks(cfg.Sets<<bucketBits, cfg.Ways),
		bucketBits: bucketBits,
		tagMask:    uint32(1)<<cfg.TagBits - 1,
		setsLog2:   bits.TrailingZeros(uint(cfg.Sets)),
		lookups:    make([]int64, cfg.Sets),
	}
}

// Config returns the CSHR configuration.
func (s *CSHR) Config() CSHRConfig { return s.cfg }

// PartialTag derives the stored partial tag from a block number.
func (s *CSHR) PartialTag(block uint64) uint32 {
	h := block * 0xFF51AFD7ED558CCD
	return uint32(h>>24) & s.tagMask
}

// setIndex maps an i-cache set index to a CSHR set using its top bits:
// with r = icacheSets/Sets i-cache sets per CSHR set, the index drops the
// ceil(log2 r) low bits.
func (s *CSHR) setIndex(icacheSet, icacheSets int) int {
	if icacheSets <= s.cfg.Sets {
		return icacheSet & (s.cfg.Sets - 1)
	}
	return icacheSet >> bits.Len(uint(icacheSets>>s.setsLog2-1))
}

// bucket returns the byTag group of set si's bucket holding tag.
func (s *CSHR) bucket(si int, tag uint32) int {
	return si<<s.bucketBits | int(tag&(1<<s.bucketBits-1))
}

// mark sets (on) or clears way i of set si in the valid mask, in the
// bucket masks of the entry's two tags, and in the set's recency list.
func (s *CSHR) mark(si, i int, on bool) {
	w := si*s.cfg.Ways + i
	vb, cb := s.bucket(si, s.victim[w]), s.bucket(si, s.contender[w])
	if on {
		s.valid.set(si, i)
		s.byTag.set(vb, i)
		s.byTag.set(cb, i)
		s.lru.push(si, w)
	} else {
		s.valid.clear(si, i)
		s.byTag.clear(vb, i)
		s.byTag.clear(cb, i)
		s.lru.remove(w)
	}
}

// Insert records a new unresolved (victim, contender) pair for the given
// i-cache set. If the CSHR set is full, the LRU entry is evicted and
// returned as an unresolved resolution (Evicted, Sooner=true).
func (s *CSHR) Insert(icacheSet, icacheSets int, victimBlock, contenderBlock uint64) (evicted Resolution, hasEvicted bool) {
	si := s.setIndex(icacheSet, icacheSets)
	lo := si * s.cfg.Ways
	s.Inserts++
	i := s.valid.firstClear(si, s.cfg.Ways)
	if i < 0 {
		i = s.lru.oldest(si) - lo
		evicted = Resolution{
			VictimTag: s.victim[lo+i],
			Sooner:    true,
			Evicted:   true,
			Age:       s.lookups[si] - s.born[lo+i],
		}
		hasEvicted = true
		s.EvictedUnres++
		s.mark(si, i, false)
	}
	w := lo + i
	s.victim[w] = s.PartialTag(victimBlock)
	s.contender[w] = s.PartialTag(contenderBlock)
	s.born[w] = s.lookups[si]
	s.mark(si, i, true)
	return evicted, hasEvicted
}

// Lookup searches the CSHR set for the fetched block's partial tag and
// resolves matching comparisons (Fig 7): a victim-field match resolves that
// single entry with Sooner=true (at most one can match, see §III-C2); a
// contender-field match resolves with Sooner=false and may hit several
// entries. Resolved entries are invalidated. Results are appended to dst
// in way order and returned. Only the ways in the tag's bucket mask are
// compared.
func (s *CSHR) Lookup(icacheSet, icacheSets int, fetchedBlock uint64, dst []Resolution) []Resolution {
	si := s.setIndex(icacheSet, icacheSets)
	s.lookups[si]++
	now := s.lookups[si]
	tag := s.PartialTag(fetchedBlock)
	lo := si * s.cfg.Ways
	for k, m := range s.byTag.of(s.bucket(si, tag)) {
		for ; m != 0; m &= m - 1 {
			i := k<<6 | bits.TrailingZeros64(m)
			vt := s.victim[lo+i]
			sooner := vt == tag
			if !sooner && s.contender[lo+i] != tag {
				continue // another tag in the same bucket
			}
			s.mark(si, i, false)
			dst = append(dst, Resolution{VictimTag: vt, Sooner: sooner, Age: now - s.born[lo+i]})
			if sooner {
				s.ResolvedVictim++
			} else {
				s.ResolvedContend++
			}
		}
	}
	return dst
}

// Occupancy returns the number of valid entries.
func (s *CSHR) Occupancy() int { return s.valid.count() }

// StorageBits returns CSHR storage per Table I: per entry, two partial tags
// + 1 valid bit + 5 LRU bits (for the 32-way organization).
func (s *CSHR) StorageBits() int {
	lruBits := 0
	for 1<<lruBits < s.cfg.Ways {
		lruBits++
	}
	return s.cfg.Entries() * (2*s.cfg.TagBits + 1 + lruBits)
}
