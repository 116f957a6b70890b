package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime/debug"
	"slices"
	"time"
	"unsafe"

	"acic/internal/analysis"
	"acic/internal/branch"
	"acic/internal/cpu"
	"acic/internal/experiments"
	"acic/internal/experiments/engine"
	"acic/internal/mem"
	"acic/internal/trace"
	"acic/internal/workload"
)

// prepareScale is prepare-cold-long's trace length as a multiple of -n.
const prepareScale = 4

// seededOrder returns the 15 paper profiles in a seed-shuffled order:
// the order Pipeline.Warm schedules them in. The profiles themselves keep
// their own seeds. Offsetting those seeds would vary the traces too, but
// the generator's cost is not bounded in the profile seed: one request can
// overshoot the trace length without limit (perlbench at Seed+5 takes 30x
// longer and twice the memory; at Seed+1005 it exhausts the host's
// memory), so seed-offset profiles would measure that defect, or crash,
// instead of the prepare layers. workload.overshoot_max reports the
// paper profiles' overshoot.
func seededOrder(seed int64) []string {
	apps := paperApps()
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e37))
	rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	return apps
}

// newPrepareStore is prepare-cold-long's set-up before the phase process
// starts: a fresh, opened artifact store.
func newPrepareStore(dir string, n int) (time.Duration, error) {
	start := time.Now()
	_, err := experiments.NewPipeline(experiments.PipelineConfig{N: n, Dir: dir, Pool: engine.NewPool(1)})
	return time.Since(start), err
}

// phasePrepare is prepare-cold-long's timed phase: a cold Pipeline.Warm of
// the 15 paper profiles, in the seed's order, through the default (batch)
// prepare path. After the
// timed phase, every prepared array is digested, the cold pipeline is
// dropped, and the store is reloaded warm app by app: the reload must
// regenerate nothing and reproduce every array byte for byte.
func phasePrepare(p phaseArgs) (*phaseResult, error) {
	tr := newTracer(p.trace, p.run)
	pr := &phaseResult{}
	apps := seededOrder(p.seed)
	cfg := experiments.PipelineConfig{N: p.n, Dir: p.store, Pool: engine.NewPool(p.workers)}

	_, end := tr.begin("experiments.prepare_cold_s", 0)
	pl, err := experiments.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	err = pl.Warm(apps...)
	pr.WallNS = end().Nanoseconds()
	pr.PeakKB = peakRSSKB(0)
	pr.Spans = tr.recorded()
	if err != nil {
		pr.fail("prepare-cold-long: warm: %v", err)
	}
	if got, want := pl.Regenerated(), int64(4*len(apps)); got != want {
		pr.fail("prepare-cold-long: %d stage artifacts regenerated, want %d (store not cold)", got, want)
	}
	want := map[string]arrayDigests{}
	for _, app := range apps {
		if w, err := pl.Workload(app); err != nil {
			pr.op(fmt.Errorf("prepare-cold-long: %s: %w", app, err))
		} else {
			want[app] = digestWorkload(w)
		}
	}
	debug.FreeOSMemory() // the cold pipeline is dead: reload in its place
	cfg.Pool = engine.NewPool(1)
	for _, app := range apps {
		if d, ok := want[app]; ok {
			pr.op(reloadMatches(cfg, app, d))
		}
	}
	return pr, nil
}

// reloadMatches loads app from the store through a fresh pipeline and
// compares every prepared array with the cold pipeline's digests.
func reloadMatches(cfg experiments.PipelineConfig, app string, want arrayDigests) error {
	warm, err := experiments.NewPipeline(cfg)
	if err != nil {
		return err
	}
	got, err := warm.Workload(app)
	if err != nil {
		return fmt.Errorf("prepare-cold-long: %s: warm reload: %w", app, err)
	}
	if n := warm.Regenerated(); n != 0 {
		return fmt.Errorf("prepare-cold-long: %s: warm reload regenerated %d artifacts", app, n)
	}
	if diff := want.diff(digestWorkload(got)); diff != "" {
		return fmt.Errorf("prepare-cold-long: %s: warm reload differs in %s", app, diff)
	}
	return nil
}

// arrayDigests holds a SHA-256 of each prepared array of a workload, so
// comparisons need not hold two copies of the arrays.
type arrayDigests [7][32]byte

var arrayNames = [7]string{"trace", "annotations", "descriptors", "blocks", "data blocks", "successor array", "data latencies"}

func digestArrays(insts []trace.Inst, ann []branch.Annotation, desc []uint8, blocks, memBlk []uint64, nextAt []int64, dataLat []int16) arrayDigests {
	const rec = 26 // Inst field by field: the struct has padding
	h := sha256.New()
	buf := make([]byte, 0, rec*4096)
	for _, in := range insts {
		buf = binary.LittleEndian.AppendUint64(buf, in.PC)
		buf = binary.LittleEndian.AppendUint64(buf, in.Target)
		buf = binary.LittleEndian.AppendUint64(buf, in.MemAddr)
		taken := byte(0)
		if in.Taken {
			taken = 1
		}
		buf = append(buf, byte(in.Class), taken)
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	var d arrayDigests
	h.Sum(d[0][:0])
	d[1] = sha256.Sum256(rawBytes(ann))
	d[2] = sha256.Sum256(desc)
	d[3] = sha256.Sum256(rawBytes(blocks))
	d[4] = sha256.Sum256(rawBytes(memBlk))
	d[5] = sha256.Sum256(rawBytes(nextAt))
	d[6] = sha256.Sum256(rawBytes(dataLat))
	return d
}

func digestWorkload(w *experiments.Workload) arrayDigests {
	return digestArrays(w.Trace.Insts, w.Ann, w.Prog.Desc, w.Blocks, w.Prog.MemBlk, w.NextAt, w.Prog.DataLat)
}

// diff names the first array whose digest differs ("" = none).
func (a arrayDigests) diff(b arrayDigests) string {
	for i := range a {
		if a[i] != b[i] {
			return arrayNames[i]
		}
	}
	return ""
}

// rawBytes views a slice as its bytes; T must be a fixed-size type
// without padding.
func rawBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(zero)))
}

// prepareColdLong measures the prepare-cold-long workload.
func (b *bench) prepareColdLong() error {
	n := prepareScale * b.cfg.n
	var e endToEnd
	start := time.Now()
	for rep := 0; b.reps(rep, start); rep++ {
		store := b.scratch("store")
		d, err := newPrepareStore(store, n)
		if err != nil {
			return err
		}
		pr, err := b.runChild(phaseArgs{name: "prepare", store: store, n: n, seed: b.cfg.seed, workers: b.cfg.workers})
		if err != nil {
			return err
		}
		b.res.merge(&pr.result)
		e.add(d+time.Duration(pr.SpawnNS), pr.WallNS, pr.PeakKB, pr.MaxRSSKB)
		os.RemoveAll(store)
	}
	e.report(b.res)
	return nil
}

// prepareLayers replays the prepare stages component by component, app by
// app, summing each stage's time, then times a serial cold Pipeline.Warm
// of the same profiles in a child; the difference is the engine's own
// cost (store writes, codec framing, pool). The replayed arrays must match
// what the pipeline stored.
func (b *bench) prepareLayers(parent int, overhead bool) error {
	n := prepareScale * b.cfg.n
	memCfg := mem.DefaultConfig()
	stage := map[string]time.Duration{}
	var encoded int64
	overshoot := 0.0
	timed := func(name string, p int, f func()) {
		_, end := b.tr.begin(name, p)
		f()
		stage[name] += end()
	}
	replayed := map[string]arrayDigests{}
	for _, app := range seededOrder(b.cfg.seed) {
		prof, _ := workload.ByName(app)
		appID, endApp := b.tr.begin("prepare."+app, parent)
		var (
			tr     *trace.Trace
			ann    []branch.Annotation
			prog   *cpu.Program
			nextAt []int64
			buf    bytes.Buffer
		)
		timed("workload.generate_s", appID, func() { tr = workload.Generate(prof, n) })
		// The trace aliases the walk's buffer, so its capacity shows how far
		// the last request overshot the trace length.
		overshoot = max(overshoot, float64(cap(tr.Insts))/float64(n))
		timed("branch.annotate_s", appID, func() { ann = branch.NewFrontEnd().Annotate(tr) })
		timed("cpu.program_s", appID, func() { prog = cpu.NewProgram(tr, ann) })
		timed("analysis.nextuse_s", appID, func() { nextAt = analysis.NextUseArray(prog.Blocks) })
		timed("cpu.datalat_s", appID, func() { prog.EnsureDataLatencies(memCfg) })
		var encErr, decErr error
		timed("trace.encode_s", appID, func() { encErr = trace.Write(&buf, tr) })
		encoded += int64(buf.Len())
		var back *trace.Trace
		timed("trace.decode_s", appID, func() { back, decErr = trace.Read(&buf) })
		b.res.op(encErr)
		b.res.op(decErr)
		if decErr == nil && !slices.Equal(back.Insts, tr.Insts) {
			b.res.fail("trace codec: %s does not round-trip", app)
		}
		replayed[app] = digestArrays(tr.Insts, ann, prog.Desc, prog.Blocks, prog.MemBlk, nextAt, prog.DataLat)
		endApp()
		debug.FreeOSMemory()
	}
	var sum time.Duration // the compute stages; the codec is the store's own cost
	for name, d := range stage {
		b.res.set(name, "s", d.Seconds())
		if name != "trace.encode_s" && name != "trace.decode_s" {
			sum += d
		}
	}
	b.res.set("workload.overshoot_max", "x", overshoot)
	b.res.set("trace.bytes_per_inst", "B/inst", float64(encoded)/float64(n*len(replayed)))

	store := b.scratch("store")
	if _, err := newPrepareStore(store, n); err != nil {
		return err
	}
	id, end := b.tr.begin("prepare.pipeline", parent)
	pr, err := b.runChild(phaseArgs{name: "prepare", store: store, n: n, seed: b.cfg.seed, workers: 1, trace: true})
	end()
	if err != nil {
		return err
	}
	b.tr.adopt(pr.Spans, id)
	b.res.merge(&pr.result)
	b.res.set("experiments.prepare_cold_s", "s", seconds(pr.WallNS))
	b.res.set("engine.store_self_s", "s", seconds(pr.WallNS)-sum.Seconds())
	if overhead {
		plain := b.scratch("store")
		if _, err := newPrepareStore(plain, n); err != nil {
			return err
		}
		untraced, err := b.runChild(phaseArgs{name: "prepare", store: plain, n: n, seed: b.cfg.seed, workers: 1})
		if err != nil {
			return err
		}
		b.res.merge(&untraced.result)
		b.res.set("trace.overhead_s", "s", seconds(pr.WallNS-untraced.WallNS))
		os.RemoveAll(plain)
	}

	// The component replay and the pipeline must agree on every array.
	cfg := experiments.PipelineConfig{N: n, Dir: store, Pool: engine.NewPool(1)}
	for _, app := range paperApps() {
		warm, err := experiments.NewPipeline(cfg)
		if err != nil {
			return err
		}
		w, err := warm.Workload(app)
		b.res.op(err)
		if err != nil {
			continue
		}
		if diff := replayed[app].diff(digestWorkload(w)); diff != "" {
			b.res.fail("prepare: %s: component replay differs from the pipeline's stored %s", app, diff)
		}
	}
	return os.RemoveAll(store)
}
