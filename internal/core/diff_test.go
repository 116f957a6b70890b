package core

import (
	"math/rand"
	"slices"
	"testing"
)

// diffGeometries are the configurations the differential tests cover: every
// Fig 15 sensitivity variant (mirrored from experiments.Fig15Variants, which
// this package cannot import), the instant-update predictor, and 32-bit CSHR
// tags, where every tag value is a live tag and none can mark an empty way.
var diffGeometries = []struct {
	name   string
	mutate func(*Config)
}{
	{"default", func(*Config) {}},
	{"2k-hrt", func(c *Config) { c.Predictor.HRTEntries = 2048 }},
	{"512-hrt", func(c *Config) { c.Predictor.HRTEntries = 512 }},
	{"8bit-history", func(c *Config) { c.Predictor.HistoryBits = 8 }},
	{"10bit-history", func(c *Config) { c.Predictor.HistoryBits = 10 }},
	{"2bit-counter", func(c *Config) { c.Predictor.CounterBits = 2 }},
	{"8bit-counter", func(c *Config) { c.Predictor.CounterBits = 8 }},
	{"8-slot-filter", func(c *Config) { c.FilterSlots = 8 }},
	{"32-slot-filter", func(c *Config) { c.FilterSlots = 32 }},
	{"7bit-cshr-tag", func(c *Config) { c.CSHR.TagBits = 7 }},
	{"27bit-cshr-tag", func(c *Config) { c.CSHR.TagBits = 27 }},
	{"instant-update", func(c *Config) { c.Predictor.UpdateLatency = 0 }},
	{"32bit-cshr-tag", func(c *Config) { c.CSHR.TagBits = 32 }},
	{"1-slot-queue", func(c *Config) { c.Predictor.QueueSlots = 1; c.Predictor.UpdateLatency = 5 }},
}

const diffSteps = 20_000

// TestPredictorMatchesReference drives the active-list predictor and the
// reference that walks every PT queue with the same Train/Predict/Tick
// stream (cycle gaps from 0 to 20) and compares every return value, every
// stat counter and the whole PT and HRT after each step.
func TestPredictorMatchesReference(t *testing.T) {
	for gi, g := range diffGeometries {
		t.Run(g.name, func(t *testing.T) {
			cfg := DefaultConfig()
			g.mutate(&cfg)
			pc := cfg.Predictor
			got, want := NewPredictor(pc), newRefPredictor(pc)
			rng := rand.New(rand.NewSource(int64(gi)))
			// A small pool of tags makes HRT aliasing, shared history values
			// and full PT queues common.
			tags := make([]uint32, 96)
			for i := range tags {
				tags[i] = rng.Uint32()
			}
			var cycle int64
			for step := 0; step < diffSteps; step++ {
				tag := tags[rng.Intn(len(tags))]
				switch op := rng.Intn(10); {
				case op < 4:
					outcome := rng.Intn(3) != 0
					got.Train(tag, outcome)
					want.Train(tag, outcome)
				case op < 6:
					if g, w := got.Predict(tag), want.Predict(tag); g != w {
						t.Fatalf("step %d: Predict(%#x) = %v, reference %v", step, tag, g, w)
					}
				case op < 7:
					// A burst in one cycle: many HRT entries hand the same
					// history value to the PT updater and overflow its queue.
					for range 24 {
						tag, outcome := tags[rng.Intn(len(tags))], rng.Intn(2) == 0
						got.Train(tag, outcome)
						want.Train(tag, outcome)
					}
				default:
					gap := []int64{0, 1, 1, 2, 3, 20}[rng.Intn(6)]
					cycle += gap
					got.Tick(cycle)
					want.Tick(cycle)
				}
				if gs, ws := predictorStats(got.Predictions, got.Admits, got.TrainEvents, got.AliasDrops, got.QueueOverflow),
					predictorStats(want.Predictions, want.Admits, want.TrainEvents, want.AliasDrops, want.QueueOverflow); gs != ws {
					t.Fatalf("step %d: stats %v, reference %v", step, gs, ws)
				}
				for h := range want.pt {
					if got.Counter(uint32(h)) != want.Counter(uint32(h)) {
						t.Fatalf("step %d: PT[%d] = %d, reference %d", step, h, got.Counter(uint32(h)), want.Counter(uint32(h)))
					}
				}
				for _, tag := range tags {
					if got.History(tag) != want.History(tag) {
						t.Fatalf("step %d: HRT(%#x) = %d, reference %d", step, tag, got.History(tag), want.History(tag))
					}
				}
			}
			if want.TrainEvents == 0 || want.AliasDrops == 0 {
				t.Fatalf("op stream too tame: %d trains, %d alias drops", want.TrainEvents, want.AliasDrops)
			}
			if pc.UpdateLatency > 0 && want.QueueOverflow == 0 {
				t.Fatal("op stream never filled a PT queue")
			}
		})
	}
}

func predictorStats(v ...uint64) [5]uint64 { return [5]uint64(v) }

// TestCSHRMatchesReference drives the SoA CSHR and the AoS reference with
// the same Insert/Lookup stream over several i-cache geometries and
// compares evictions, resolutions (order included), stats and occupancy
// after each step.
func TestCSHRMatchesReference(t *testing.T) {
	for gi, g := range diffGeometries {
		t.Run(g.name, func(t *testing.T) {
			cfg := DefaultConfig()
			g.mutate(&cfg)
			got, want := NewCSHR(cfg.CSHR), newRefCSHR(cfg.CSHR)
			rng := rand.New(rand.NewSource(int64(gi) + 100))
			blocks := make([]uint64, 600)
			for i := range blocks {
				blocks[i] = rng.Uint64() >> rng.Intn(40)
			}
			var gotRes, wantRes []Resolution
			for step := 0; step < diffSteps; step++ {
				sets := []int{4, 8, 64, 96, 512}[step/(diffSteps/5)]
				set := rng.Intn(sets)
				if rng.Intn(3) == 0 {
					v, c := blocks[rng.Intn(len(blocks))], blocks[rng.Intn(len(blocks))]
					ge, gh := got.Insert(set, sets, v, c)
					we, wh := want.Insert(set, sets, v, c)
					if ge != we || gh != wh {
						t.Fatalf("step %d: Insert evicted (%+v, %v), reference (%+v, %v)", step, ge, gh, we, wh)
					}
				} else {
					b := blocks[rng.Intn(len(blocks))]
					gotRes = got.Lookup(set, sets, b, gotRes[:0])
					wantRes = want.Lookup(set, sets, b, wantRes[:0])
					if !slices.Equal(gotRes, wantRes) {
						t.Fatalf("step %d: Lookup = %+v, reference %+v", step, gotRes, wantRes)
					}
				}
				if got.Inserts != want.Inserts || got.ResolvedVictim != want.ResolvedVictim ||
					got.ResolvedContend != want.ResolvedContend || got.EvictedUnres != want.EvictedUnres {
					t.Fatalf("step %d: stats diverged", step)
				}
				if got.Occupancy() != want.Occupancy() {
					t.Fatalf("step %d: occupancy %d, reference %d", step, got.Occupancy(), want.Occupancy())
				}
			}
			if want.ResolvedVictim == 0 || want.ResolvedContend == 0 || want.EvictedUnres == 0 {
				t.Fatalf("op stream too tame: %d victim, %d contender resolutions, %d evictions",
					want.ResolvedVictim, want.ResolvedContend, want.EvictedUnres)
			}
		})
	}
}

// TestIFilterMatchesReference drives the SoA i-Filter and the AoS reference
// with the same Access/Contains/Insert/Invalidate stream (duplicate inserts
// and stale invalid slots included) and compares every return value, the
// hit/miss counters and occupancy after each step.
func TestIFilterMatchesReference(t *testing.T) {
	for gi, g := range diffGeometries {
		t.Run(g.name, func(t *testing.T) {
			cfg := DefaultConfig()
			g.mutate(&cfg)
			got, want := NewIFilter(cfg.FilterSlots), newRefIFilter(cfg.FilterSlots)
			rng := rand.New(rand.NewSource(int64(gi) + 200))
			pool := 3 * cfg.FilterSlots
			for step := 0; step < diffSteps; step++ {
				b := uint64(rng.Intn(pool))
				next := rng.Int63n(1 << 20)
				switch op := rng.Intn(10); {
				case op < 4:
					if gh, wh := got.Access(b, next), want.Access(b, next); gh != wh {
						t.Fatalf("step %d: Access(%d) = %v, reference %v", step, b, gh, wh)
					}
				case op < 5:
					if gc, wc := got.Contains(b), want.Contains(b); gc != wc {
						t.Fatalf("step %d: Contains(%d) = %v, reference %v", step, b, gc, wc)
					}
				case op < 8:
					gv, gn, ge := got.Insert(b, next)
					wv, wn, we := want.Insert(b, next)
					if gv != wv || gn != wn || ge != we {
						t.Fatalf("step %d: Insert(%d) = (%d, %d, %v), reference (%d, %d, %v)", step, b, gv, gn, ge, wv, wn, we)
					}
				default:
					if gi, wi := got.Invalidate(b), want.Invalidate(b); gi != wi {
						t.Fatalf("step %d: Invalidate(%d) = %v, reference %v", step, b, gi, wi)
					}
				}
				if got.Hits != want.Hits || got.Misses != want.Misses || got.Occupancy() != want.Occupancy() {
					t.Fatalf("step %d: hits/misses/occupancy (%d, %d, %d), reference (%d, %d, %d)", step,
						got.Hits, got.Misses, got.Occupancy(), want.Hits, want.Misses, want.Occupancy())
				}
			}
		})
	}
}
