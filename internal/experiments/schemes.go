package experiments

import (
	"acic/internal/bypass"
	"acic/internal/cache"
	"acic/internal/core"
	"acic/internal/cpu"
	"acic/internal/icache"
	"acic/internal/policy"
	"acic/internal/victim"
)

// Fig10Schemes lists the schemes of Figs 10/11 in plot order, baseline
// excluded.
var Fig10Schemes = []string{
	"srrip", "ship", "harmony", "ghrp", "dsb", "obm",
	"vvc", "vc3k", "acic", "l1i-36k", "opt", "opt-bypass",
}

// Baseline is the paper's baseline scheme: LRU i-cache (with FDP supplied
// by the run options).
const Baseline = "lru"

// SchemeNames returns every registered scheme name.
func SchemeNames() []string {
	names := []string{Baseline}
	names = append(names, Fig10Schemes...)
	names = append(names,
		"ifilter", "access-count", "random60", "dsb+ifilter",
		"acic-instant", "acic-global", "acic-bimodal", "acic-nofilter",
		"acic-pfaware",
		"lru+vc8k",
	)
	return names
}

// NewScheme builds the named i-cache subsystem for a workload. The oracle
// is attached only for oracle schemes (opt, opt-bypass).
func NewScheme(name string, w *Workload) (icache.Subsystem, error) {
	return NewSampledScheme(name, w, cpu.SampleConfig{})
}

// NewSampledScheme builds the named subsystem with the set-sampling filter
// applied at construction time, so the shared fully-associative structures
// (i-Filter, victim caches) are scaled to the sampled traffic fraction
// (icache.Config.Sample). A zero sample config is exactly NewScheme.
func NewSampledScheme(name string, w *Workload, sample cpu.SampleConfig) (icache.Subsystem, error) {
	if err := sample.Validate(); err != nil {
		return nil, err
	}
	filter := sample.Filter()
	oracle := w.Oracle.Func()
	base := func() icache.Config {
		return icache.Config{Sets: icache.DefaultSets, Ways: icache.DefaultWays, Sample: filter}
	}
	switch name {
	case "lru":
		c := base()
		c.Policy = policy.NewLRU()
		return icache.New(c)
	case "plru":
		c := base()
		c.Policy = policy.NewPLRU()
		return icache.New(c)
	case "lip":
		c := base()
		c.Policy = policy.NewLIP()
		return icache.New(c)
	case "bip":
		c := base()
		c.Policy = policy.NewBIP()
		return icache.New(c)
	case "dip":
		c := base()
		c.Policy = policy.NewDIP()
		return icache.New(c)
	case "eaf":
		c := base()
		c.Policy = policy.NewLRU()
		c.Bypass = bypass.NewEAF(bypass.DefaultEAFConfig())
		return icache.New(c)
	case "ripple-lite":
		// Profile-guided replacement (Ripple-inspired): classify transient
		// blocks on the warmup prefix, evaluate on the full run.
		c := base()
		training := w.Blocks[:len(w.Blocks)/10]
		c.Policy = policy.NewProfileGuided(policy.Profile(training, 512))
		return icache.New(c)
	case "srrip":
		c := base()
		c.Policy = policy.NewSRRIP(2)
		return icache.New(c)
	case "ship":
		c := base()
		c.Policy = policy.NewSHiP(policy.DefaultSHiPConfig())
		return icache.New(c)
	case "harmony":
		c := base()
		c.Policy = policy.NewHawkeye(policy.DefaultHawkeyeConfig())
		return icache.New(c)
	case "ghrp":
		c := base()
		c.Policy = policy.NewGHRP(policy.DefaultGHRPConfig())
		return icache.New(c)
	case "dsb":
		c := base()
		c.Policy = policy.NewLRU()
		c.Bypass = bypass.NewDSB(bypass.DefaultDSBConfig(64))
		return icache.New(c)
	case "dsb+ifilter":
		c := base()
		c.Policy = policy.NewLRU()
		c.Bypass = bypass.NewDSB(bypass.DefaultDSBConfig(64))
		c.FilterSlots = 16
		return icache.New(c)
	case "obm":
		c := base()
		c.Policy = policy.NewLRU()
		c.Bypass = bypass.NewOBM(bypass.DefaultOBMConfig())
		return icache.New(c)
	case "vvc":
		return icache.NewSampledVVC(victim.DefaultVVCConfig(), filter), nil
	case "vc3k":
		c := base()
		c.Policy = policy.NewLRU()
		c.VictimBlocks = 48
		return icache.New(c)
	case "lru+vc8k":
		c := base()
		c.Policy = policy.NewLRU()
		c.VictimBlocks = 128
		return icache.New(c)
	case "l1i-36k":
		// 36KB, 9-way: 64 sets x 9 ways.
		c := base()
		c.Ways = 9
		c.Policy = policy.NewLRU()
		c.Name = "l1i-36k"
		return icache.New(c)
	case "opt":
		c := base()
		c.Policy = policy.NewOPT()
		c.NextUse = oracle
		c.Successors = w.Oracle
		return icache.New(c)
	case "opt-bypass":
		c := base()
		c.Policy = policy.NewLRU()
		c.FilterSlots = 16
		c.Bypass = bypass.OPTBypass{}
		c.NextUse = oracle
		c.Successors = w.Oracle
		c.Name = "opt-bypass"
		return icache.New(c)
	case "ifilter":
		// Fig 3a "always insert i-Filter victim to i-cache".
		c := base()
		c.Policy = policy.NewLRU()
		c.FilterSlots = 16
		return icache.New(c)
	case "access-count":
		// Fig 3a "bypass with access count comparison" (i-Filter front).
		c := base()
		c.Policy = policy.NewLRU()
		c.FilterSlots = 16
		c.Bypass = bypass.NewAccessCount(6, 1024)
		return icache.New(c)
	case "random60":
		// Fig 12b random bypass with 60% admit probability (i-Filter front).
		c := base()
		c.Policy = policy.NewLRU()
		c.FilterSlots = 16
		c.Bypass = bypass.NewRandomAdmit(60, w.Profile.Seed)
		c.Name = "random60"
		return icache.New(c)
	case "acic":
		return newACIC(core.DefaultConfig(), w, filter)
	case "acic-instant":
		cc := core.DefaultConfig()
		cc.Predictor.UpdateLatency = 0
		sub, err := newACIC(cc, w, filter)
		if err != nil {
			return nil, err
		}
		return named{sub, "acic-instant"}, nil
	case "acic-global":
		cc := core.DefaultConfig()
		cc.Variant = core.VariantGlobalHistory
		return newACIC(cc, w, filter)
	case "acic-bimodal":
		cc := core.DefaultConfig()
		cc.Variant = core.VariantBimodal
		return newACIC(cc, w, filter)
	case "acic-pfaware":
		// Future-work extension (paper §VI): prefetch-aware admission.
		cc := core.DefaultConfig()
		cc.PrefetchAware = true
		sub, err := newACIC(cc, w, filter)
		if err != nil {
			return nil, err
		}
		return named{sub, "acic-pfaware"}, nil
	case "acic-nofilter":
		// Fig 17 "no i-Filter": the admission predictor gates direct fills.
		c := base()
		c.Policy = policy.NewLRU()
		c.Bypass = NewACICBypass(core.DefaultConfig(), icache.DefaultSets)
		c.Name = "acic-nofilter"
		return icache.New(c)
	default:
		return nil, unknownName{"scheme", name}
	}
}

// newACIC builds the standard ACIC complex over an LRU i-cache.
func newACIC(cc core.Config, _ *Workload, sample cache.SampleFilter) (icache.Subsystem, error) {
	c := icache.Config{Sets: icache.DefaultSets, Ways: icache.DefaultWays, Policy: policy.NewLRU(), ACIC: &cc, Sample: sample}
	return icache.New(c)
}

// named overrides a subsystem's reported name.
type named struct {
	icache.Subsystem
	name string
}

func (n named) Name() string { return n.name }

// ACICBypass adapts the ACIC predictor+CSHR (no i-Filter) to the bypass
// interface, for the Fig 17 "no i-Filter" ablation: admission control runs
// directly on missed blocks instead of on filter victims.
type ACICBypass struct {
	a    *core.ACIC
	sets int
	tick int64
}

// NewACICBypass creates the no-filter ACIC bypass adapter for an i-cache
// with the given set count.
func NewACICBypass(cc core.Config, sets int) *ACICBypass {
	cc.Variant = core.VariantTwoLevel
	return &ACICBypass{a: core.New(cc), sets: sets}
}

// Name implements bypass.Policy.
func (b *ACICBypass) Name() string { return "acic-nofilter" }

// OnFetch implements bypass.Policy.
func (b *ACICBypass) OnFetch(block uint64) {
	b.tick++
	b.a.Tick(b.tick)
	b.a.OnFetch(block, int(block)&(b.sets-1), b.sets, false)
}

// ShouldInsert implements bypass.Policy.
func (b *ACICBypass) ShouldInsert(incoming, contender uint64, contenderValid bool, ctx *cache.AccessContext) bool {
	if !contenderValid {
		return true
	}
	return b.a.Decide(incoming, contender, int(incoming)&(b.sets-1), b.sets, ctx.AccessIdx)
}

// StorageBits implements bypass.Policy.
func (b *ACICBypass) StorageBits() int { return b.a.StorageBits() - b.a.Filter.StorageBits() }
