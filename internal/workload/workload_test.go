package workload

import (
	"testing"

	"acic/internal/analysis"
	"acic/internal/cache"
	"acic/internal/trace"
)

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("media-streaming")
	a := Generate(p, 50000)
	b := Generate(p, 50000)
	if len(a.Insts) != len(b.Insts) {
		t.Fatal("lengths differ")
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

func TestGenerateLength(t *testing.T) {
	p, _ := ByName("tpcc")
	tr := Generate(p, 12345)
	if tr.Len() != 12345 {
		t.Errorf("length = %d, want 12345", tr.Len())
	}
	if tr.Name != "tpcc" {
		t.Errorf("name = %q", tr.Name)
	}
}

func TestProfilesAllGenerate(t *testing.T) {
	for _, p := range All() {
		tr := Generate(p, 20000)
		if tr.Len() != 20000 {
			t.Errorf("%s: wrong length", p.Name)
		}
		if tr.Footprint() < 100 {
			t.Errorf("%s: implausibly small footprint %d", p.Name, tr.Footprint())
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("media-streaming"); !ok {
		t.Error("media-streaming should exist")
	}
	if _, ok := ByName("gcc"); !ok {
		t.Error("gcc should exist")
	}
	if _, ok := ByName("no-such-app"); ok {
		t.Error("unknown app should not resolve")
	}
	if len(Datacenter()) != 10 || len(SPEC()) != 5 || len(All()) != 15 {
		t.Error("suite sizes wrong")
	}
	// Names are unique: each profile is the one its name resolves to.
	for _, p := range All() {
		if got, _ := ByName(p.Name); got != p {
			t.Errorf("ByName(%q) = %+v, want %+v", p.Name, got, p)
		}
	}
	// A lookup hands out a copy; editing it leaves the table intact.
	p, _ := ByName("gcc")
	p.Seed++
	if again, _ := ByName("gcc"); again.Seed == p.Seed {
		t.Error("editing a looked-up profile changed the table")
	}
}

// TestTraceControlFlowConsistency checks the structural validity of the
// generated trace: branch targets are present, calls and returns nest, and
// non-branch instructions are followed by their fall-through.
func TestTraceControlFlowConsistency(t *testing.T) {
	p, _ := ByName("web-serving")
	tr := Generate(p, 40000)
	var stack []uint64
	for i := 0; i < len(tr.Insts)-1; i++ {
		in := &tr.Insts[i]
		next := tr.Insts[i+1].PC
		switch in.Class {
		case trace.ClassCall:
			stack = append(stack, in.PC+4)
			if next != in.Target {
				t.Fatalf("inst %d: call target %#x, next PC %#x", i, in.Target, next)
			}
		case trace.ClassRet:
			if len(stack) > 0 {
				want := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if in.Target != want {
					// Depth-bounded walks may truncate nesting; the return
					// must still go to *a* recorded return address.
					t.Logf("inst %d: return target %#x, innermost call pushed %#x", i, in.Target, want)
				}
			}
			if next != in.Target {
				t.Fatalf("inst %d: ret to %#x but next PC %#x", i, in.Target, next)
			}
		case trace.ClassCondBranch:
			want := in.PC + 4
			if in.Taken {
				want = in.Target
			}
			if next != want {
				t.Fatalf("inst %d: cond branch (taken=%v) expects next %#x, got %#x", i, in.Taken, want, next)
			}
		case trace.ClassJump, trace.ClassIndirect:
			if next != in.Target {
				t.Fatalf("inst %d: jump expects %#x, got %#x", i, in.Target, next)
			}
		default:
			if next != in.PC+4 {
				t.Fatalf("inst %d (%v): sequential successor expected, got %#x after %#x", i, in.Class, next, in.PC)
			}
		}
	}
}

func TestInstructionMix(t *testing.T) {
	p, _ := ByName("data-caching")
	tr := Generate(p, 60000)
	var loads, stores, branches int
	for i := range tr.Insts {
		switch {
		case tr.Insts[i].Class == trace.ClassLoad:
			loads++
		case tr.Insts[i].Class == trace.ClassStore:
			stores++
		case tr.Insts[i].Class.IsBranch():
			branches++
		}
	}
	n := float64(tr.Len())
	if f := float64(loads) / n; f < 0.10 || f > 0.40 {
		t.Errorf("load fraction %.2f out of band", f)
	}
	if f := float64(stores) / n; f < 0.03 || f > 0.25 {
		t.Errorf("store fraction %.2f out of band", f)
	}
	if f := float64(branches) / n; f < 0.08 || f > 0.40 {
		t.Errorf("branch fraction %.2f out of band", f)
	}
}

// TestBurstinessShape checks the Fig 1a characterization: at instruction
// granularity, the 0-distance (spatial) bucket dominates for datacenter
// profiles, and a visible fraction sits just beyond the i-cache's reach.
func TestBurstinessShape(t *testing.T) {
	p, _ := ByName("media-streaming")
	tr := Generate(p, 120000)
	fr := analysis.InstReuseProfile(tr.BlockAccesses(), tr.RunLengths(), analysis.Fig1aEdges, cache.SampleFilter{}).Dist
	if fr[0] < 0.7 {
		t.Errorf("spatial bucket = %.2f, want > 0.7 (paper: ~0.85)", fr[0])
	}
	beyond := fr[3] + fr[4] + fr[5]
	if beyond < 0.01 {
		t.Errorf("beyond-cache fraction = %.3f; workload has no capacity pressure", beyond)
	}
}

func TestSPECSmallFootprint(t *testing.T) {
	pd, _ := ByName("media-streaming")
	ps, _ := ByName("x264")
	big := Generate(pd, 60000).Footprint()
	small := Generate(ps, 60000).Footprint()
	if small >= big {
		t.Errorf("SPEC footprint %d should be well below datacenter %d", small, big)
	}
}

func TestDataAddressesDisjointFromCode(t *testing.T) {
	p, _ := ByName("sibench")
	tr := Generate(p, 30000)
	for i := range tr.Insts {
		in := &tr.Insts[i]
		if in.Class.IsMem() && in.MemAddr < heapBase {
			t.Fatalf("inst %d: data address %#x inside code region", i, in.MemAddr)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := newRNG(1)
	z := newZipf(r, 10, 1.2)
	counts := make([]int, 10)
	for i := 0; i < 20000; i++ {
		counts[z.draw()]++
	}
	if counts[0] <= counts[9] {
		t.Errorf("zipf rank 0 (%d) should dominate rank 9 (%d)", counts[0], counts[9])
	}
	if counts[0] < 3*counts[9] {
		t.Errorf("zipf skew too weak: %v", counts)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	if newRNG(0).next() == 0 {
		t.Error("zero seed must be remapped")
	}
	r := newRNG(9)
	for i := 0; i < 1000; i++ {
		if v := r.intn(7); v < 0 || v >= 7 {
			t.Fatalf("intn out of range: %d", v)
		}
		if v := r.rangeInt(3, 5); v < 3 || v > 5 {
			t.Fatalf("rangeInt out of range: %d", v)
		}
		if f := r.float(); f < 0 || f >= 1 {
			t.Fatalf("float out of range: %v", f)
		}
	}
	if r.rangeInt(5, 3) != 5 {
		t.Error("inverted range should return lo")
	}
	if r.intn(0) != 0 {
		t.Error("intn(0) should return 0")
	}
}
