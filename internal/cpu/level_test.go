package cpu

import (
	"bytes"
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
// the cold ProgramBuilder, EnsureDataLatencies and AdoptDataLatencies. On
// every memory instruction levelLat[d>>descLevelShift] must equal a direct
// hierarchy replay's latency, every other descriptor must carry no level
// bits, and the DLAT payload derived from the bits must encode the
// replayed timeline. It runs under the default hierarchy and under one whose L2
// and L3 share a latency, where the adopted levels may name L2 for an L3
// hit and must still read the same latency. A simulation over each path
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
		adopted, err := NewProgramFromParts(&trace.Trace{Name: tr.Name}, len(tr.Insts), ensured.AnnotationBytes(nil), ensured.DescBytes(nil), ensured.Blocks)
		if err != nil {
			t.Fatal(err)
		}
		if err := adopted.AdoptDataLatencies(trace.EncodeInt16s(timeline), cfg); err != nil {
			t.Fatal(err)
		}

		relabeled := 0
		for i, d := range adopted.Desc {
			if d != ensured.Desc[i] {
				relabeled++
			}
		}
		if (cfg.Lat.L3 == cfg.Lat.L2) != (relabeled > 0) {
			t.Errorf("L3=%d: adoption relabeled %d levels; want some exactly when two levels share a latency", cfg.Lat.L3, relabeled)
		}

		var results []Result
		for _, path := range []struct {
			name string
			p    *Program
		}{{"builder", built}, {"ensure", ensured}, {"adopt", adopted}} {
			p := path.p
			// Only the replay keeps DataLat; every path's DLAT payload,
			// read off the level bits, must encode the replayed timeline.
			if p == ensured && !slices.Equal(p.DataLat, timeline) || p != ensured && p.DataLat != nil {
				t.Errorf("L3=%d %s: DataLat of %d entries, want the replayed timeline on the ensure path only", cfg.Lat.L3, path.name, len(p.DataLat))
			}
			if !bytes.Equal(p.DataLatBytes(nil), trace.EncodeInt16s(timeline)) {
				t.Errorf("L3=%d %s: DLAT payload differs from the replayed timeline's", cfg.Lat.L3, path.name)
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
			t.Errorf("L3=%d: builder, ensure and adopt simulate to %+v, %+v, %+v", cfg.Lat.L3, results[0], results[1], results[2])
		}
	}
}

// TestAdoptRefusesForeignLatencies: a timeline the hierarchy could not
// have produced is refused before anything is installed — a memory
// instruction whose latency is no level's, a nonzero latency on a
// non-memory instruction, and a payload cut short — and descriptors that already carry level bits
// are refused when the Program is assembled. A refused adoption leaves
// the Program free to adopt the right timeline.
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
	parts := func() *Program {
		p, err := NewProgramFromParts(&trace.Trace{Name: tr.Name}, len(tr.Insts), ref.AnnotationBytes(nil), ref.DescBytes(nil), ref.Blocks)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	for _, bad := range []struct {
		name string
		idx  int
		lat  int16
	}{{"latency of no level", memIdx, 7}, {"zero on a memory instruction", memIdx, 0}, {"latency on a non-memory instruction", otherIdx, 5}, {"truncated payload", memIdx, ref.DataLat[memIdx]}} {
		p := parts()
		lat := slices.Clone(ref.DataLat)
		lat[bad.idx] = bad.lat
		payload := trace.EncodeInt16s(lat)
		if bad.name == "truncated payload" {
			payload = trace.EncodeInt16s(ref.DataLat)
			payload = payload[:len(payload)-1]
		}
		if err := p.AdoptDataLatencies(payload, cfg); err == nil {
			t.Errorf("%s: adopted", bad.name)
		}
		if p.DataLat != nil || p.Desc[memIdx]&descLevel != 0 {
			t.Errorf("%s: a refused timeline was installed", bad.name)
		}
		if err := p.AdoptDataLatencies(trace.EncodeInt16s(ref.DataLat), cfg); err != nil || !slices.Equal(p.Desc, ref.Desc) {
			t.Errorf("%s: the right timeline after a refusal: %v (descriptors equal %v)", bad.name, err, slices.Equal(p.Desc, ref.Desc))
		}
	}

	withLevels := ref.DescBytes(nil)
	withLevels[memIdx] |= descLevel
	if _, err := NewProgramFromParts(&trace.Trace{Name: tr.Name}, len(tr.Insts), ref.AnnotationBytes(nil), withLevels, ref.Blocks); err == nil {
		t.Error("descriptors carrying level bits were accepted")
	}
}
