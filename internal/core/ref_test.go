package core

// Array-of-structs reference implementations of the predictor, CSHR and
// i-Filter, kept verbatim in behaviour from the original datapath. The
// production structures store their state as contiguous per-field arrays
// and drain only the PT queues that hold pending updates; the differential
// tests in diff_test.go drive both with the same op streams and require
// identical results at every step.

type refPTUpdate struct {
	due       int64
	increment bool
}

type refHRTShift struct {
	due     int64
	idx     int
	outcome bool
}

type refPredictor struct {
	cfg       PredictorConfig
	hrt       []uint32
	pt        []int64
	ctrMax    int64
	threshold int64
	histMask  uint32

	queues    [][]refPTUpdate
	pendHRT   []refHRTShift
	now       int64
	trainedAt []int64

	Predictions   uint64
	Admits        uint64
	TrainEvents   uint64
	AliasDrops    uint64
	QueueOverflow uint64
}

func newRefPredictor(cfg PredictorConfig) *refPredictor {
	p := &refPredictor{
		cfg:       cfg,
		hrt:       make([]uint32, cfg.HRTEntries),
		pt:        make([]int64, 1<<cfg.HistoryBits),
		ctrMax:    int64(1)<<cfg.CounterBits - 1,
		threshold: cfg.threshold(),
		histMask:  uint32(1)<<cfg.HistoryBits - 1,
		queues:    make([][]refPTUpdate, 1<<cfg.HistoryBits),
		trainedAt: make([]int64, cfg.HRTEntries),
	}
	for i := range p.trainedAt {
		p.trainedAt[i] = -1
	}
	for i := range p.pt {
		p.pt[i] = p.threshold
	}
	return p
}

func (p *refPredictor) hrtIndex(partialTag uint32) int {
	h := uint64(partialTag) * 0x9E3779B97F4A7C15
	return int(h % uint64(p.cfg.HRTEntries))
}

func (p *refPredictor) Predict(partialTag uint32) bool {
	p.Predictions++
	h := p.hrt[p.hrtIndex(partialTag)]
	admit := p.pt[h] >= p.threshold
	if admit {
		p.Admits++
	}
	return admit
}

func (p *refPredictor) Train(partialTag uint32, outcome bool) {
	idx := p.hrtIndex(partialTag)
	if p.trainedAt[idx] == p.now {
		p.AliasDrops++
		return
	}
	p.trainedAt[idx] = p.now
	p.TrainEvents++
	h := p.hrt[idx]
	if p.cfg.UpdateLatency <= 0 {
		p.applyPT(h, outcome)
		p.hrt[idx] = ((h << 1) | b2u(outcome)) & p.histMask
		return
	}
	q := p.queues[h]
	if len(q) >= p.cfg.QueueSlots {
		p.QueueOverflow++
	} else {
		p.queues[h] = append(q, refPTUpdate{due: p.now + p.cfg.UpdateLatency, increment: outcome})
	}
	p.pendHRT = append(p.pendHRT, refHRTShift{due: p.now + 1, idx: idx, outcome: outcome})
}

func (p *refPredictor) applyPT(h uint32, increment bool) {
	if increment {
		if p.pt[h] < p.ctrMax {
			p.pt[h]++
		}
	} else if p.pt[h] > 0 {
		p.pt[h]--
	}
}

func (p *refPredictor) Tick(cycle int64) {
	if cycle <= p.now {
		return
	}
	elapsed := cycle - p.now
	p.now = cycle
	if len(p.pendHRT) > 0 {
		kept := p.pendHRT[:0]
		for _, s := range p.pendHRT {
			if s.due <= cycle {
				p.hrt[s.idx] = ((p.hrt[s.idx] << 1) | b2u(s.outcome)) & p.histMask
			} else {
				kept = append(kept, s)
			}
		}
		p.pendHRT = kept
	}
	for h := range p.queues {
		q := p.queues[h]
		pops := 0
		for pops < len(q) && q[pops].due <= cycle && int64(pops) < elapsed {
			p.applyPT(uint32(h), q[pops].increment)
			pops++
		}
		if pops > 0 {
			p.queues[h] = q[:copy(q, q[pops:])]
		}
	}
}

func (p *refPredictor) Counter(history uint32) int64 { return p.pt[history&p.histMask] }

func (p *refPredictor) History(partialTag uint32) uint32 { return p.hrt[p.hrtIndex(partialTag)] }

type refCSHREntry struct {
	victimTag    uint32
	contenderTag uint32
	valid        bool
	stamp        int64
	born         int64
}

type refCSHR struct {
	cfg     CSHRConfig
	sets    [][]refCSHREntry
	tagMask uint32
	clock   int64
	lookups []int64

	Inserts         uint64
	ResolvedVictim  uint64
	ResolvedContend uint64
	EvictedUnres    uint64
}

func newRefCSHR(cfg CSHRConfig) *refCSHR {
	s := &refCSHR{
		cfg:     cfg,
		sets:    make([][]refCSHREntry, cfg.Sets),
		tagMask: uint32(1)<<cfg.TagBits - 1,
		lookups: make([]int64, cfg.Sets),
	}
	for i := range s.sets {
		s.sets[i] = make([]refCSHREntry, cfg.Ways)
	}
	return s
}

func (s *refCSHR) PartialTag(block uint64) uint32 {
	h := block * 0xFF51AFD7ED558CCD
	return uint32(h>>24) & s.tagMask
}

func (s *refCSHR) setIndex(icacheSet, icacheSets int) int {
	if icacheSets <= s.cfg.Sets {
		return icacheSet & (s.cfg.Sets - 1)
	}
	shift := 0
	for 1<<shift < icacheSets/s.cfg.Sets {
		shift++
	}
	return icacheSet >> shift
}

func (s *refCSHR) Insert(icacheSet, icacheSets int, victimBlock, contenderBlock uint64) (evicted Resolution, hasEvicted bool) {
	si := s.setIndex(icacheSet, icacheSets)
	set := s.sets[si]
	s.clock++
	s.Inserts++
	e := refCSHREntry{
		victimTag:    s.PartialTag(victimBlock),
		contenderTag: s.PartialTag(contenderBlock),
		valid:        true,
		stamp:        s.clock,
		born:         s.lookups[si],
	}
	lru := -1
	var lruStamp int64
	for i := range set {
		if !set[i].valid {
			set[i] = e
			return Resolution{}, false
		}
		if lru == -1 || set[i].stamp < lruStamp {
			lru, lruStamp = i, set[i].stamp
		}
	}
	old := set[lru]
	set[lru] = e
	s.EvictedUnres++
	return Resolution{
		VictimTag: old.victimTag,
		Sooner:    true,
		Evicted:   true,
		Age:       s.lookups[si] - old.born,
	}, true
}

func (s *refCSHR) Lookup(icacheSet, icacheSets int, fetchedBlock uint64, dst []Resolution) []Resolution {
	si := s.setIndex(icacheSet, icacheSets)
	s.lookups[si]++
	tag := s.PartialTag(fetchedBlock)
	set := s.sets[si]
	for i := range set {
		if !set[i].valid {
			continue
		}
		switch tag {
		case set[i].victimTag:
			dst = append(dst, Resolution{VictimTag: set[i].victimTag, Sooner: true, Age: s.lookups[si] - set[i].born})
			set[i].valid = false
			s.ResolvedVictim++
		case set[i].contenderTag:
			dst = append(dst, Resolution{VictimTag: set[i].victimTag, Sooner: false, Age: s.lookups[si] - set[i].born})
			set[i].valid = false
			s.ResolvedContend++
		}
	}
	return dst
}

func (s *refCSHR) Occupancy() int {
	n := 0
	for _, set := range s.sets {
		for i := range set {
			if set[i].valid {
				n++
			}
		}
	}
	return n
}

type refIFilter struct {
	slots []refIFSlot
	clock int64

	Hits   uint64
	Misses uint64
}

type refIFSlot struct {
	block uint64
	stamp int64
	next  int64
	valid bool
}

func newRefIFilter(n int) *refIFilter { return &refIFilter{slots: make([]refIFSlot, n)} }

func (f *refIFilter) Contains(block uint64) bool {
	for i := range f.slots {
		if f.slots[i].valid && f.slots[i].block == block {
			return true
		}
	}
	return false
}

func (f *refIFilter) Access(block uint64, next int64) bool {
	for i := range f.slots {
		if f.slots[i].valid && f.slots[i].block == block {
			f.clock++
			f.slots[i].stamp = f.clock
			f.slots[i].next = next
			f.Hits++
			return true
		}
	}
	f.Misses++
	return false
}

func (f *refIFilter) Insert(block uint64, next int64) (victim uint64, victimNext int64, evicted bool) {
	f.clock++
	lru, lruStamp := -1, int64(0)
	for i := range f.slots {
		if !f.slots[i].valid {
			f.slots[i] = refIFSlot{block: block, stamp: f.clock, next: next, valid: true}
			return 0, 0, false
		}
		if lru == -1 || f.slots[i].stamp < lruStamp {
			lru, lruStamp = i, f.slots[i].stamp
		}
	}
	victim, victimNext = f.slots[lru].block, f.slots[lru].next
	f.slots[lru] = refIFSlot{block: block, stamp: f.clock, next: next, valid: true}
	return victim, victimNext, true
}

func (f *refIFilter) Invalidate(block uint64) bool {
	for i := range f.slots {
		if f.slots[i].valid && f.slots[i].block == block {
			f.slots[i].valid = false
			return true
		}
	}
	return false
}

func (f *refIFilter) Occupancy() int {
	n := 0
	for i := range f.slots {
		if f.slots[i].valid {
			n++
		}
	}
	return n
}
