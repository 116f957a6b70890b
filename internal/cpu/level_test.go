package cpu

import (
	"slices"
	"testing"

	"acic/internal/branch"
	"acic/internal/mem"
	"acic/internal/trace"
	"acic/internal/workload"
)

// replayLatency services one data access through h and returns its
// latency, read from which of h's level counters the access moved rather
// than from the level DataLevel returns, so a replay built on it checks
// the level bits independently of the level-to-latency table.
func replayLatency(h *mem.Hierarchy, block uint64) int16 {
	l1, l2, l3 := h.L1DHits, h.L2DataHits, h.L3DataHits
	h.DataLevel(block)
	lat := h.Latencies()
	switch {
	case h.L1DHits != l1:
		return int16(lat.L1D)
	case h.L2DataHits != l2:
		return int16(lat.L2)
	case h.L3DataHits != l3:
		return int16(lat.L3)
	}
	return int16(lat.DRAM)
}

// TestDataLevelsMatchTimeline pins the descriptors' data-level bits to the
// int16 latency timeline they stand in for, on all three install paths:
// the cold ProgramBuilder, EnsureDataLatencies and NewProgramFromParts
// over the descriptors EnsureDataLatencies left (a store load). On every
// memory instruction levelLat[d>>descLevelShift] must equal a direct
// hierarchy replay's latency, and every other descriptor must carry no
// level bits. It runs under the default hierarchy and under one whose L2
// and L3 share a latency, where the levels still travel as they are. A
// Program from parts given the Inst records reads back the replayed
// timeline; one without them keeps none. A simulation over each path
// matches the others.
func TestDataLevelsMatchTimeline(t *testing.T) {
	prof, _ := workload.ByName("wikipedia")
	tr := workload.Generate(prof, 30_000)
	ann := branch.NewFrontEnd().Annotate(tr)
	shared := mem.DefaultConfig()
	shared.Lat.L3 = shared.Lat.L2

	for _, cfg := range []mem.Config{mem.DefaultConfig(), shared} {
		h := mem.New(cfg)
		timeline := make([]int16, len(tr.Insts))
		for i, in := range tr.Insts {
			if in.Class.IsMem() {
				timeline[i] = replayLatency(h, trace.Block(in.MemAddr))
			}
		}

		ensured := NewProgram(tr, ann)
		ensured.EnsureDataLatencies(cfg)
		b := NewProgramBuilder(tr.Name, cfg, 0)
		for window := range slices.Chunk(tr.Insts, 4096) {
			b.Append(window)
		}
		built := b.Finish()
		parts, err := NewProgramFromParts(&trace.Trace{Name: tr.Name}, len(tr.Insts), slices.Clone(ensured.Desc), ensured.Blocks, cfg)
		if err != nil {
			t.Fatal(err)
		}
		full, err := NewProgramFromParts(tr, len(tr.Insts), slices.Clone(ensured.Desc), ensured.Blocks, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(full.DataLat, timeline) || !slices.Equal(full.Ann, ann) {
			t.Errorf("L3=%d: a Program from parts with its Inst records reads back %d latencies and %d annotations unequal to the replay's",
				cfg.Lat.L3, len(full.DataLat), len(full.Ann))
		}

		var results []Result
		for _, path := range []struct {
			name string
			p    *Program
		}{{"builder", built}, {"ensure", ensured}, {"parts", parts}} {
			p := path.p
			if p == ensured && !slices.Equal(p.DataLat, timeline) || p != ensured && p.DataLat != nil {
				t.Errorf("L3=%d %s: DataLat of %d entries, want the replayed timeline on the ensure path only", cfg.Lat.L3, path.name, len(p.DataLat))
			}
			loads := 0
			for i, d := range p.Desc {
				if !tr.Insts[i].Class.IsMem() {
					if d&descLevel != 0 {
						t.Fatalf("L3=%d %s: non-memory instruction %d carries level bits %#x", cfg.Lat.L3, path.name, i, d)
					}
					continue
				}
				if d&descLoad != 0 {
					loads++
				}
				if got := p.levelLat[d>>descLevelShift]; got != int64(timeline[i]) {
					t.Fatalf("L3=%d %s: instruction %d reads latency %d, timeline has %d", cfg.Lat.L3, path.name, i, got, timeline[i])
				}
			}
			if loads == 0 {
				t.Fatalf("%s: no loads to check", path.name)
			}
			p.DataLat = nil // the simulation reads only the level bits
			results = append(results, NewSimulator(DefaultConfig(), p, newSub(t), mem.New(cfg)).Run(0))
		}
		if results[0] != results[1] || results[1] != results[2] {
			t.Errorf("L3=%d: builder, ensure and parts simulate to %+v, %+v, %+v", cfg.Lat.L3, results[0], results[1], results[2])
		}
	}
}

// TestAdoptRefusesForeignLatencies: a store load adopts its data-side
// timeline from the descriptors' level bits, so NewProgramFromParts
// refuses descriptors the hierarchy could not have produced: a level on
// an instruction that is neither a load nor a store. Every level on a
// memory instruction is accepted and reads its latency from the given
// configuration, and a descriptor stream of the wrong length or block
// count is refused.
func TestAdoptRefusesForeignLatencies(t *testing.T) {
	prof, _ := workload.ByName("media-streaming")
	tr := workload.Generate(prof, 5_000)
	cfg := mem.DefaultConfig()
	ref := NewProgram(tr, branch.NewFrontEnd().Annotate(tr))
	ref.EnsureDataLatencies(cfg)
	memIdx := slices.IndexFunc(tr.Insts, func(in trace.Inst) bool { return in.Class.IsMem() })
	otherIdx := slices.IndexFunc(tr.Insts, func(in trace.Inst) bool { return !in.Class.IsMem() })
	if memIdx < 0 || otherIdx < 0 {
		t.Fatal("trace lacks memory or non-memory instructions")
	}
	parts := func(desc []uint8, blocks []uint64) (*Program, error) {
		return NewProgramFromParts(&trace.Trace{Name: tr.Name}, len(tr.Insts), desc, blocks, cfg)
	}

	for l := range mem.Level(4) {
		desc := slices.Clone(ref.Desc)
		desc[memIdx] = withLevel(desc[memIdx], l)
		p, err := parts(desc, ref.Blocks)
		if err != nil {
			t.Fatalf("level %d on a memory instruction: %v", l, err)
		}
		if got, want := p.levelLat[p.Desc[memIdx]>>descLevelShift], int64(cfg.Lat.Data()[l]); got != want {
			t.Errorf("level %d reads latency %d, want %d", l, got, want)
		}
	}
	for l := mem.Level(1); l < 4; l++ {
		desc := slices.Clone(ref.Desc)
		desc[otherIdx] = withLevel(desc[otherIdx], l)
		if _, err := parts(desc, ref.Blocks); err == nil {
			t.Errorf("level %d on non-memory instruction %d was accepted", l, otherIdx)
		}
	}
	if _, err := parts(ref.Desc[:len(ref.Desc)-1], ref.Blocks); err == nil {
		t.Error("a descriptor stream one short was accepted")
	}
	if _, err := parts(ref.Desc, ref.Blocks[1:]); err == nil {
		t.Error("a block sequence one short was accepted")
	}
}
