package workload

import "sync"

// Profile parameterizes one synthetic workload. The ten datacenter profiles
// mirror Table III's applications; the five SPEC profiles mirror the
// Fig 18/19 subset (SPEC2017 Int with L1i MPKI > 1).
type Profile struct {
	Name string
	Seed uint64

	// Static shape.
	Services       int     // request types
	PrivateFuncs   [2]int  // private functions per service (min,max)
	FuncBlocks     [2]int  // 64B blocks per function (min,max)
	LibFuncs       int     // shared library functions
	OSFuncs        int     // shared OS functions
	LibPerPrivate  int     // library calls chained after each private func
	OSCallProb     float64 // probability a private func enters the OS
	NestedCallProb float64 // probability a lib func calls another lib func
	SharedZipf     float64 // skew of shared-function selection

	// Dynamics.
	ServiceZipf float64 // skew of request-type selection (0 = uniform)
	LoopProb    float64 // probability a function has an inner loop
	LoopSpanMax int     // max loop body span in blocks
	LoopIter    [2]int  // loop iterations per execution (min,max)
	BranchNoise float64 // fraction of blocks with a data-dependent branch

	// PhaseEvery rotates the service-popularity ranking after this many
	// requests (0 = static mix). Phasing makes block-level comparison
	// outcomes streaky, which is both realistic (request mixes drift) and
	// the signal that history-based admission prediction consumes.
	PhaseEvery int

	// VisitLen bounds the basic-block length in instructions (min,max);
	// zero means the default of 5-11 (datacenter code is branchy; SPEC
	// loop bodies run longer).
	VisitLen [2]int

	// Data side.
	LoadFrac   float64
	StoreFrac  float64
	DataBlocks int // heap footprint in 64B blocks

	// PaperMPKI is Table III's measured L1i MPKI on the FDP baseline.
	// The simulator never reads it: the table3 experiment prints it next
	// to the simulated MPKI, and perfbench's sim.table3_mpki_err_pct
	// tracks the gap between the two.
	PaperMPKI float64
}

// visitLen returns the basic-block length bounds, defaulted when unset.
func (p *Profile) visitLen() (int, int) {
	if p.VisitLen[0] <= 0 || p.VisitLen[1] < p.VisitLen[0] {
		return 5, 11
	}
	return p.VisitLen[0], p.VisitLen[1]
}

// Datacenter returns the ten Table III application profiles in paper order.
func Datacenter() []Profile {
	return []Profile{
		{
			Name: "media-streaming", Seed: 101, PaperMPKI: 81.2,
			PhaseEvery: 150, Services: 14, PrivateFuncs: [2]int{5, 9}, FuncBlocks: [2]int{6, 14},
			LibFuncs: 70, OSFuncs: 45, LibPerPrivate: 2, OSCallProb: 0.5,
			NestedCallProb: 0.4, SharedZipf: 0.6, ServiceZipf: 0.9,
			LoopProb: 0.30, LoopSpanMax: 4, LoopIter: [2]int{2, 6}, BranchNoise: 0.05,
			LoadFrac: 0.24, StoreFrac: 0.09, DataBlocks: 40000,
		},
		{
			Name: "data-caching", Seed: 102, PaperMPKI: 78.1,
			PhaseEvery: 120, Services: 12, PrivateFuncs: [2]int{5, 8}, FuncBlocks: [2]int{6, 12},
			LibFuncs: 64, OSFuncs: 48, LibPerPrivate: 2, OSCallProb: 0.6,
			NestedCallProb: 0.35, SharedZipf: 0.6, ServiceZipf: 0.9,
			LoopProb: 0.22, LoopSpanMax: 3, LoopIter: [2]int{2, 5}, BranchNoise: 0.05,
			LoadFrac: 0.27, StoreFrac: 0.10, DataBlocks: 60000,
		},
		{
			Name: "data-serving", Seed: 103, PaperMPKI: 31.6,
			PhaseEvery: 200, Services: 8, PrivateFuncs: [2]int{4, 7}, FuncBlocks: [2]int{5, 10},
			LibFuncs: 48, OSFuncs: 32, LibPerPrivate: 2, OSCallProb: 0.45,
			NestedCallProb: 0.3, SharedZipf: 0.8, ServiceZipf: 1.1,
			LoopProb: 0.35, LoopSpanMax: 4, LoopIter: [2]int{3, 8}, BranchNoise: 0.04,
			LoadFrac: 0.26, StoreFrac: 0.10, DataBlocks: 50000,
		},
		{
			Name: "web-serving", Seed: 104, PaperMPKI: 65.8,
			PhaseEvery: 120, Services: 12, PrivateFuncs: [2]int{5, 9}, FuncBlocks: [2]int{6, 12},
			LibFuncs: 60, OSFuncs: 44, LibPerPrivate: 2, OSCallProb: 0.55,
			NestedCallProb: 0.35, SharedZipf: 0.8, ServiceZipf: 1.0,
			LoopProb: 0.25, LoopSpanMax: 3, LoopIter: [2]int{2, 5}, BranchNoise: 0.05,
			LoadFrac: 0.25, StoreFrac: 0.10, DataBlocks: 35000,
		},
		{
			Name: "web-search", Seed: 105, PaperMPKI: 151.5,
			PhaseEvery: 100, Services: 18, PrivateFuncs: [2]int{7, 12}, FuncBlocks: [2]int{7, 15},
			LibFuncs: 90, OSFuncs: 50, LibPerPrivate: 3, OSCallProb: 0.5,
			NestedCallProb: 0.45, SharedZipf: 0.5, ServiceZipf: 0.7,
			LoopProb: 0.25, LoopSpanMax: 4, LoopIter: [2]int{2, 5}, BranchNoise: 0.06,
			LoadFrac: 0.26, StoreFrac: 0.08, DataBlocks: 80000,
		},
		{
			Name: "tpcc", Seed: 106, PaperMPKI: 42.5,
			PhaseEvery: 150, Services: 24, PrivateFuncs: [2]int{6, 10}, FuncBlocks: [2]int{6, 12},
			LibFuncs: 80, OSFuncs: 40, LibPerPrivate: 2, OSCallProb: 0.5,
			NestedCallProb: 0.3, SharedZipf: 0.4, ServiceZipf: 0.3,
			LoopProb: 0.3, LoopSpanMax: 4, LoopIter: [2]int{2, 6}, BranchNoise: 0.04,
			LoadFrac: 0.28, StoreFrac: 0.12, DataBlocks: 70000,
		},
		{
			Name: "wikipedia", Seed: 107, PaperMPKI: 41.1,
			PhaseEvery: 150, Services: 22, PrivateFuncs: [2]int{5, 10}, FuncBlocks: [2]int{6, 12},
			LibFuncs: 76, OSFuncs: 40, LibPerPrivate: 2, OSCallProb: 0.45,
			NestedCallProb: 0.3, SharedZipf: 0.4, ServiceZipf: 0.35,
			LoopProb: 0.3, LoopSpanMax: 4, LoopIter: [2]int{2, 6}, BranchNoise: 0.04,
			LoadFrac: 0.26, StoreFrac: 0.10, DataBlocks: 55000,
		},
		{
			Name: "sibench", Seed: 108, PaperMPKI: 35.0,
			PhaseEvery: 200, Services: 8, PrivateFuncs: [2]int{4, 8}, FuncBlocks: [2]int{5, 11},
			LibFuncs: 52, OSFuncs: 30, LibPerPrivate: 2, OSCallProb: 0.4,
			NestedCallProb: 0.3, SharedZipf: 0.7, ServiceZipf: 0.9,
			LoopProb: 0.3, LoopSpanMax: 3, LoopIter: [2]int{2, 6}, BranchNoise: 0.04,
			LoadFrac: 0.27, StoreFrac: 0.11, DataBlocks: 45000,
		},
		{
			Name: "finagle-http", Seed: 109, PaperMPKI: 46.1,
			PhaseEvery: 150, Services: 10, PrivateFuncs: [2]int{5, 8}, FuncBlocks: [2]int{5, 11},
			LibFuncs: 66, OSFuncs: 36, LibPerPrivate: 2, OSCallProb: 0.45,
			NestedCallProb: 0.4, SharedZipf: 0.6, ServiceZipf: 0.8,
			LoopProb: 0.28, LoopSpanMax: 3, LoopIter: [2]int{2, 5}, BranchNoise: 0.05,
			LoadFrac: 0.25, StoreFrac: 0.09, DataBlocks: 40000,
		},
		{
			Name: "neo4j", Seed: 110, PaperMPKI: 58.7,
			PhaseEvery: 150, Services: 12, PrivateFuncs: [2]int{6, 10}, FuncBlocks: [2]int{6, 13},
			LibFuncs: 70, OSFuncs: 40, LibPerPrivate: 2, OSCallProb: 0.45,
			NestedCallProb: 0.4, SharedZipf: 0.6, ServiceZipf: 0.9,
			LoopProb: 0.3, LoopSpanMax: 4, LoopIter: [2]int{2, 6}, BranchNoise: 0.05,
			LoadFrac: 0.27, StoreFrac: 0.08, DataBlocks: 90000,
		},
	}
}

// SPEC returns the five Fig 18/19 SPEC2017 Int profiles: small, loopy code
// footprints with high baseline i-cache hit rates.
func SPEC() []Profile {
	return []Profile{
		{
			Name: "perlbench", Seed: 201, PaperMPKI: 3.5,
			Services: 5, PrivateFuncs: [2]int{5, 9}, FuncBlocks: [2]int{7, 15},
			LibFuncs: 56, OSFuncs: 8, LibPerPrivate: 1, OSCallProb: 0.15,
			NestedCallProb: 0.4, SharedZipf: 0.9, ServiceZipf: 1.2,
			LoopProb: 0.6, LoopSpanMax: 5, LoopIter: [2]int{4, 24}, BranchNoise: 0.05,
			LoadFrac: 0.26, StoreFrac: 0.11, DataBlocks: 8000,
		},
		{
			Name: "omnetpp", Seed: 202, PaperMPKI: 2.5,
			Services: 5, PrivateFuncs: [2]int{4, 8}, FuncBlocks: [2]int{6, 13},
			LibFuncs: 56, OSFuncs: 8, LibPerPrivate: 1, OSCallProb: 0.12,
			NestedCallProb: 0.4, SharedZipf: 1.0, ServiceZipf: 1.2,
			LoopProb: 0.6, LoopSpanMax: 4, LoopIter: [2]int{4, 20}, BranchNoise: 0.06,
			LoadFrac: 0.30, StoreFrac: 0.10, DataBlocks: 60000,
		},
		{
			Name: "xalancbmk", Seed: 203, PaperMPKI: 4.0,
			Services: 5, PrivateFuncs: [2]int{4, 7}, FuncBlocks: [2]int{6, 12},
			LibFuncs: 44, OSFuncs: 7, LibPerPrivate: 1, OSCallProb: 0.1,
			NestedCallProb: 0.45, SharedZipf: 0.8, ServiceZipf: 1.0,
			LoopProb: 0.55, LoopSpanMax: 4, LoopIter: [2]int{3, 16}, BranchNoise: 0.05,
			LoadFrac: 0.28, StoreFrac: 0.09, DataBlocks: 30000,
		},
		{
			Name: "x264", Seed: 204, PaperMPKI: 1.2,
			Services: 3, PrivateFuncs: [2]int{4, 6}, FuncBlocks: [2]int{5, 10},
			LibFuncs: 28, OSFuncs: 4, LibPerPrivate: 1, OSCallProb: 0.06,
			NestedCallProb: 0.3, SharedZipf: 1.1, ServiceZipf: 1.4,
			LoopProb: 0.7, LoopSpanMax: 5, LoopIter: [2]int{8, 40}, BranchNoise: 0.03,
			LoadFrac: 0.30, StoreFrac: 0.12, DataBlocks: 20000,
		},
		{
			Name: "gcc", Seed: 205, PaperMPKI: 8.0,
			Services: 8, PrivateFuncs: [2]int{5, 9}, FuncBlocks: [2]int{6, 13},
			LibFuncs: 64, OSFuncs: 10, LibPerPrivate: 1, OSCallProb: 0.15,
			NestedCallProb: 0.45, SharedZipf: 0.7, ServiceZipf: 0.9,
			LoopProb: 0.5, LoopSpanMax: 4, LoopIter: [2]int{3, 12}, BranchNoise: 0.06,
			LoadFrac: 0.27, StoreFrac: 0.10, DataBlocks: 25000,
		},
	}
}

// byName indexes every profile by name, built once: ByName sits on the
// serve daemon's per-request key path. Profile holds only values, so a
// lookup hands out an independent copy.
var byName = sync.OnceValue(func() map[string]Profile {
	m := make(map[string]Profile)
	for _, p := range All() {
		m[p.Name] = p
	}
	return m
})

// ByName returns the named profile from either suite.
func ByName(name string) (Profile, bool) {
	p, ok := byName()[name]
	return p, ok
}

// All returns every profile (datacenter then SPEC).
func All() []Profile { return append(Datacenter(), SPEC()...) }
