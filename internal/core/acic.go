package core

// ACIC glues the three structures together: the i-Filter absorbs bursts; on
// a filter eviction the admission predictor decides whether the victim
// enters the i-cache in place of the replacement policy's contender or is
// dropped; and the CSHR observes the subsequent fetch stream to resolve
// which of the two was re-accessed sooner, training the predictor.
//
// ACIC is deliberately agnostic of the i-cache itself: the owning i-cache
// subsystem (internal/icache) calls OnFetch for every demand block fetch,
// routes misses into the filter via FillMiss, and consults Decide when the
// filter evicts. This keeps ACIC a pure admission controller, mirroring the
// paper's datapath (Figs 2, 5, 7, 8).

// Variant selects the admission predictor organization (Fig 17 ablation).
type Variant int

// Predictor variants.
const (
	// VariantTwoLevel is the default per-address two-level predictor.
	VariantTwoLevel Variant = iota
	// VariantGlobalHistory shares one global comparison-history register
	// across all blocks (the "global history two-level predictor" bar).
	VariantGlobalHistory
	// VariantBimodal indexes counters directly by the victim's tag with no
	// history (the "bimodal predictor" bar).
	VariantBimodal
	// VariantAlwaysAdmit disables prediction: every filter victim is
	// admitted ("i-Filter only" bar, also Fig 3a's Always-insert scheme).
	VariantAlwaysAdmit
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case VariantTwoLevel:
		return "two-level"
	case VariantGlobalHistory:
		return "global-history"
	case VariantBimodal:
		return "bimodal"
	case VariantAlwaysAdmit:
		return "always-admit"
	default:
		return "unknown"
	}
}

// EvictTraining selects what an unresolved CSHR eviction teaches the
// predictor.
type EvictTraining int

// Eviction-training modes.
const (
	// EvictTrainNone discards unresolved comparisons (the default). The
	// paper's prose gives the evicted i-Filter victim "the benefit of the
	// doubt", but its datapath (Fig 8) only updates the tables from
	// *matched* CSHR entries; training on synthetic outcomes floods the PT
	// with admit updates on workloads where a third of comparisons never
	// resolve, so the conservative reading is the default here. The
	// literal reading is available as EvictTrainAdmit and is evaluated by
	// the BenchmarkAblationCSHRDefault ablation.
	EvictTrainNone EvictTraining = iota
	// EvictTrainAdmit trains eviction as "victim re-accessed sooner".
	EvictTrainAdmit
	// EvictTrainDrop trains eviction as "contender re-accessed sooner".
	EvictTrainDrop
)

// Config assembles a full ACIC instance. Zero value is not usable; use
// DefaultConfig.
type Config struct {
	FilterSlots int // i-Filter entries (16)
	Predictor   PredictorConfig
	CSHR        CSHRConfig
	Variant     Variant
	EvictTrain  EvictTraining

	// PrefetchAware enables the extension sketched in the paper's future
	// work (§VI): comparisons resolved by a fetch that a prefetcher had
	// already covered do not train "admit" — a block the prefetcher
	// reliably delivers does not need to occupy i-cache space, so its
	// resolution trains "drop" on the victim side and is ignored on the
	// contender side. See BenchmarkExtensionPrefetchAware.
	PrefetchAware bool
}

// DefaultConfig returns the paper's Table I configuration.
func DefaultConfig() Config {
	return Config{
		FilterSlots: 16,
		Predictor:   DefaultPredictorConfig(),
		CSHR:        DefaultCSHRConfig(),
		Variant:     VariantTwoLevel,
		EvictTrain:  EvictTrainNone,
	}
}

// AdmissionPredictor abstracts the predictor organization (Fig 17).
type AdmissionPredictor interface {
	// Predict returns true to admit the i-Filter victim into the i-cache.
	Predict(partialTag uint32) bool
	// Train records a resolved comparison outcome.
	Train(partialTag uint32, outcome bool)
	// Tick advances internal update pipelines to the given cycle.
	Tick(cycle int64)
	// StorageBits accounts the predictor's storage.
	StorageBits() int
	// Name identifies the organization.
	Name() string
}

// twoLevelAdapter adapts *Predictor to AdmissionPredictor.
type twoLevelAdapter struct{ *Predictor }

func (a twoLevelAdapter) Name() string { return "two-level" }

// globalHistory is the Fig 17 "global history" ablation: one shared history
// register indexes the PT; the victim's identity is ignored for indexing.
type globalHistory struct {
	pt        []int64
	hist      uint32
	histMask  uint32
	ctrMax    int64
	threshold int64
	bits      int
	ctrBits   int
}

func newGlobalHistory(cfg PredictorConfig) *globalHistory {
	g := &globalHistory{
		pt:        make([]int64, 1<<cfg.HistoryBits),
		histMask:  uint32(1)<<cfg.HistoryBits - 1,
		ctrMax:    int64(1)<<cfg.CounterBits - 1,
		threshold: cfg.threshold(),
		bits:      cfg.HistoryBits,
		ctrBits:   cfg.CounterBits,
	}
	for i := range g.pt {
		g.pt[i] = g.threshold
	}
	return g
}

func (g *globalHistory) Predict(uint32) bool { return g.pt[g.hist] >= g.threshold }

func (g *globalHistory) Train(_ uint32, outcome bool) {
	if outcome {
		if g.pt[g.hist] < g.ctrMax {
			g.pt[g.hist]++
		}
	} else if g.pt[g.hist] > 0 {
		g.pt[g.hist]--
	}
	var bit uint32
	if outcome {
		bit = 1
	}
	g.hist = ((g.hist << 1) | bit) & g.histMask
}

func (g *globalHistory) Tick(int64) {}

func (g *globalHistory) StorageBits() int { return g.bits + len(g.pt)*g.ctrBits }

func (g *globalHistory) Name() string { return "global-history" }

// bimodal is the Fig 17 "bimodal" ablation: per-tag counters, no history.
type bimodal struct {
	ctr       []int64
	ctrMax    int64
	threshold int64
	ctrBits   int
}

func newBimodal(cfg PredictorConfig) *bimodal {
	b := &bimodal{
		ctr:       make([]int64, cfg.HRTEntries),
		ctrMax:    int64(1)<<cfg.CounterBits - 1,
		threshold: cfg.threshold(),
		ctrBits:   cfg.CounterBits,
	}
	for i := range b.ctr {
		b.ctr[i] = b.threshold
	}
	return b
}

func (b *bimodal) index(tag uint32) int {
	return int(uint64(tag) * 0x9E3779B97F4A7C15 % uint64(len(b.ctr)))
}

func (b *bimodal) Predict(tag uint32) bool { return b.ctr[b.index(tag)] >= b.threshold }

func (b *bimodal) Train(tag uint32, outcome bool) {
	i := b.index(tag)
	if outcome {
		if b.ctr[i] < b.ctrMax {
			b.ctr[i]++
		}
	} else if b.ctr[i] > 0 {
		b.ctr[i]--
	}
}

func (b *bimodal) Tick(int64) {}

func (b *bimodal) StorageBits() int { return len(b.ctr) * b.ctrBits }

func (b *bimodal) Name() string { return "bimodal" }

// alwaysAdmit admits everything (plain i-Filter design).
type alwaysAdmit struct{}

func (alwaysAdmit) Predict(uint32) bool { return true }
func (alwaysAdmit) Train(uint32, bool)  {}
func (alwaysAdmit) Tick(int64)          {}
func (alwaysAdmit) StorageBits() int    { return 0 }
func (alwaysAdmit) Name() string        { return "always-admit" }

// Decision records one admission decision for offline accuracy analysis
// (Fig 12a compares these against oracle reuse distances).
type Decision struct {
	Victim    uint64 // i-Filter victim block
	Contender uint64 // i-cache contender block
	Admitted  bool
	AccessIdx int64 // block-access sequence index at decision time
}

// ACIC is the complete admission-controlled i-cache front end.
type ACIC struct {
	cfg    Config
	Filter *IFilter
	Pred   AdmissionPredictor
	CSHR   *CSHR

	resolutions []Resolution // scratch, reused across fetches

	// OnDecision, when set, observes every admission decision (used by the
	// accuracy experiments; nil in normal runs).
	OnDecision func(Decision)

	// AgeSamples, when set, receives the CSHR entry age of every resolved
	// or evicted comparison (Fig 6); nil in normal runs.
	AgeSamples func(age int64, resolved bool)

	// Stats.
	Decisions uint64
	Admitted  uint64
	Dropped   uint64
}

// New creates an ACIC instance from cfg.
func New(cfg Config) *ACIC {
	var pred AdmissionPredictor
	switch cfg.Variant {
	case VariantTwoLevel:
		pred = twoLevelAdapter{NewPredictor(cfg.Predictor)}
	case VariantGlobalHistory:
		pred = newGlobalHistory(cfg.Predictor)
	case VariantBimodal:
		pred = newBimodal(cfg.Predictor)
	case VariantAlwaysAdmit:
		pred = alwaysAdmit{}
	default:
		panic("core: unknown ACIC variant")
	}
	return &ACIC{
		cfg:    cfg,
		Filter: NewIFilter(cfg.FilterSlots),
		Pred:   pred,
		CSHR:   NewCSHR(cfg.CSHR),
	}
}

// Config returns the assembled configuration.
func (a *ACIC) Config() Config { return a.cfg }

// OnFetch must be called for every demand fetch of an instruction block
// (before the miss path runs). It resolves CSHR comparisons against the
// fetched block and trains the predictor. prefetched reports that the
// fetched block was supplied by a prefetcher since the last demand to it;
// the paper's baseline ACIC ignores the flag, while the prefetch-aware
// extension (Config.PrefetchAware) discounts such resolutions.
func (a *ACIC) OnFetch(block uint64, icacheSet, icacheSets int, prefetched bool) {
	res := a.CSHR.Lookup(icacheSet, icacheSets, block, a.resolutions[:0])
	if cap(res) > cap(a.resolutions) {
		// Store the scratch slice back only when it grew: a per-fetch
		// slice-header store costs a GC write barrier during collections.
		a.resolutions = res
	}
	for _, r := range res {
		outcome := r.Sooner
		if a.cfg.PrefetchAware && prefetched {
			if r.Sooner {
				// The victim was re-accessed first, but the prefetcher
				// delivered it: keeping it in i-cache buys nothing.
				outcome = false
			} else {
				// The contender's reuse was prefetch-covered; the
				// comparison says nothing about the victim. Skip.
				if a.AgeSamples != nil {
					a.AgeSamples(r.Age, true)
				}
				continue
			}
		}
		a.Pred.Train(r.VictimTag, outcome)
		if a.AgeSamples != nil {
			a.AgeSamples(r.Age, true)
		}
	}
}

// Decide runs admission control for an i-Filter victim against the i-cache
// contender chosen by the replacement policy, inserting the pair into the
// CSHR for future resolution. It returns true when the victim should be
// inserted into the i-cache.
func (a *ACIC) Decide(victimBlock, contenderBlock uint64, icacheSet, icacheSets int, accessIdx int64) bool {
	admit := a.Pred.Predict(a.CSHR.PartialTag(victimBlock))
	a.Decisions++
	if admit {
		a.Admitted++
	} else {
		a.Dropped++
	}
	if ev, has := a.CSHR.Insert(icacheSet, icacheSets, victimBlock, contenderBlock); has {
		switch a.cfg.EvictTrain {
		case EvictTrainAdmit:
			a.Pred.Train(ev.VictimTag, true)
		case EvictTrainDrop:
			a.Pred.Train(ev.VictimTag, false)
		}
		if a.AgeSamples != nil {
			a.AgeSamples(ev.Age, false)
		}
	}
	if a.OnDecision != nil {
		a.OnDecision(Decision{Victim: victimBlock, Contender: contenderBlock, Admitted: admit, AccessIdx: accessIdx})
	}
	return admit
}

// Tick advances predictor update pipelines to the given cycle.
func (a *ACIC) Tick(cycle int64) { a.Pred.Tick(cycle) }

// AdmitFraction returns the fraction of filter victims admitted (Fig 13).
func (a *ACIC) AdmitFraction() float64 {
	if a.Decisions == 0 {
		return 0
	}
	return float64(a.Admitted) / float64(a.Decisions)
}

// StorageBits returns the total added state of ACIC per Table I: i-Filter
// metadata+data, HRT, PT, PT update queues, and CSHR.
func (a *ACIC) StorageBits() int {
	return a.Filter.StorageBits() + a.Pred.StorageBits() + a.CSHR.StorageBits()
}
