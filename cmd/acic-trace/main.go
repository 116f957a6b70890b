// Command acic-trace generates, saves, loads, and characterizes synthetic
// instruction traces, and manages the persistent workload artifact store
// that acic-bench and acic-sim prepare through.
//
// Usage:
//
//	acic-trace -list                                  # available profiles
//	acic-trace -workload tpcc -n 500000 -o tpcc.actr  # generate & save
//	acic-trace -i tpcc.actr -stats                    # load & characterize
//	acic-trace -workload web-search -stats            # generate & characterize
//
// Subcommands:
//
//	acic-trace warm -artifact-dir DIR [-n N] [-workloads a,b] [-workers W]
//	    materialize the workload artifact (trace windows, descriptors and
//	    block sequence in one container) of each named workload (default:
//	    all datacenter + SPEC profiles), so later acic-bench / acic-sim
//	    runs skip the prepare phase entirely
//	acic-trace inspect PATH...
//	    describe trace/artifact container files (a directory inspects
//	    every .actr file in it, a store root those of its current schema
//	    subdirectory): codec version, name, sections, sizes
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"acic/cmd/internal/cliutil"
	"acic/internal/analysis"
	"acic/internal/cache"
	"acic/internal/experiments"
	"acic/internal/experiments/engine"
	"acic/internal/faults"
	"acic/internal/stats"
	"acic/internal/trace"
	"acic/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes reports to stdout and
// diagnostics to stderr, and returns the process exit code, so every exit
// path runs the deferred cleanup (the input trace's Close among it).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "warm":
			return runWarm(args[1:], stdout, stderr)
		case "inspect":
			return runInspect(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("acic-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "profile to generate")
		n       = fs.Int("n", 500_000, "instructions to generate")
		out     = fs.String("o", "", "write binary trace to this path")
		in      = fs.String("i", "", "read binary trace from this path")
		list    = fs.Bool("list", false, "list profiles and exit")
		doStats = fs.Bool("stats", false, "print trace characterization")
	)
	if code, ok := parse(fs, args); !ok {
		return code
	}
	fail := failer(stderr)

	if *list {
		t := &stats.Table{Header: []string{"profile", "suite", "paper MPKI"}}
		for _, p := range workload.Datacenter() {
			t.AddRow(p.Name, "datacenter", fmt.Sprintf("%.1f", p.PaperMPKI))
		}
		for _, p := range workload.SPEC() {
			t.AddRow(p.Name, "spec2017int", fmt.Sprintf("%.1f", p.PaperMPKI))
		}
		fmt.Fprint(stdout, t.String())
		return 0
	}

	var tr *trace.Trace
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return fail("%v", err)
		}
		defer f.Close()
		if tr, err = trace.Read(f); err != nil {
			return fail("%v", err)
		}
	case *name != "":
		p, ok := workload.ByName(*name)
		if !ok {
			return fail("unknown workload %q (use -list)", *name)
		}
		tr = workload.Generate(p, *n)
	default:
		return fail("need -workload or -i (or -list)")
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail("%v", err)
		}
		if err := trace.Write(f, tr); err != nil {
			f.Close()
			return fail("%v", err)
		}
		if err := f.Close(); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "wrote %s: %d instructions\n", *out, tr.Len())
	}

	if *doStats || *out == "" {
		characterize(stdout, tr)
	}
	return 0
}

// parse parses args into fs. It reports false, with the exit code, when
// the command must stop: 0 after -h, 2 on a bad flag (fs has printed why).
func parse(fs *flag.FlagSet, args []string) (int, bool) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	return 0, true
}

// failer returns the command's error exit: it prints the message on
// stderr and returns exit code 1.
func failer(stderr io.Writer) func(format string, args ...any) int {
	return func(format string, args ...any) int {
		fmt.Fprintf(stderr, "acic-trace: "+format+"\n", args...)
		return 1
	}
}

// runWarm materializes the requested workloads' artifacts into the
// store, so later simulation runs start warm.
func runWarm(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("acic-trace warm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var artifactDir string
	cliutil.RegisterArtifactDir(fs, &artifactDir)
	n := fs.Int("n", 0, "trace length in instructions (0 = ACIC_BENCH_N or 400000; must match the simulation runs to be reused)")
	names := fs.String("workloads", "", "comma-separated profile names (empty = all datacenter + SPEC profiles)")
	workers := fs.Int("workers", 0, "preparation worker pool size (0 = ACIC_WORKERS or GOMAXPROCS)")
	var faultSpec string
	cliutil.RegisterFaultSpec(fs, &faultSpec)
	if code, ok := parse(fs, args); !ok {
		return code
	}
	fail := failer(stderr)
	if err := faults.Validate(faultSpec); err != nil {
		return fail("-fault-spec: %v", err)
	}
	if err := faults.Install(faultSpec); err != nil {
		return fail("-fault-spec: %v", err)
	}
	if artifactDir == "" {
		return fail("warm needs -artifact-dir (or ACIC_ARTIFACT_DIR)")
	}

	var apps []string
	if *names != "" {
		apps = strings.Split(*names, ",")
	} else {
		for _, p := range workload.Datacenter() {
			apps = append(apps, p.Name)
		}
		for _, p := range workload.SPEC() {
			apps = append(apps, p.Name)
		}
	}

	pl, err := experiments.NewPipeline(experiments.PipelineConfig{
		N: *n, Dir: artifactDir, Pool: engine.NewPool(*workers),
	})
	if err != nil {
		// Warming exists only to fill the store; a store that cannot be
		// opened is fatal here, unlike in the simulation tools.
		return fail("%v", err)
	}
	start := time.Now()
	if err := pl.Warm(apps...); err != nil {
		return fail("%v", err)
	}
	elapsed := time.Since(start)

	t := &stats.Table{Header: []string{"stage", "regenerated", "from store"}}
	for _, st := range pl.Stats() {
		t.AddRow(st.Stage, st.Computed, st.FromStore)
	}
	fmt.Fprint(stdout, t.String())
	fmt.Fprintf(stdout, "warmed %d workloads in %.1fs (store: %s)\n", len(apps), elapsed.Seconds(), artifactDir)

	if snap := faults.Snapshot(); faultSpec != "" || snap.IOErrs+snap.Corruptions+snap.Panics > 0 {
		fmt.Fprintf(stdout, "faults: injected %d io / %d corrupt / %d panic; recovered %d retries, %d quarantined\n",
			snap.IOErrs, snap.Corruptions, snap.Panics, pl.Retries(), pl.Quarantined())
	}
	return 0
}

// runInspect describes trace/artifact container files.
func runInspect(args []string, stdout, stderr io.Writer) int {
	fail := failer(stderr)
	if len(args) == 0 {
		return fail("inspect needs file or directory arguments")
	}
	var files []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return fail("%v", err)
		}
		if !info.IsDir() {
			files = append(files, arg)
			continue
		}
		// A store root keeps its entries in the schema subdirectory.
		sub := filepath.Join(arg, experiments.SchemaDir())
		if info, err := os.Stat(sub); err == nil && info.IsDir() {
			arg = sub
		}
		matches, err := filepath.Glob(filepath.Join(arg, "*.actr"))
		if err != nil {
			return fail("%v", err)
		}
		files = append(files, matches...)
		describeQuarantine(stdout, arg)
	}
	if len(files) == 0 {
		return fail("no .actr files to inspect")
	}
	// A store with one corrupt entry is exactly what inspect exists to
	// diagnose: report per-file errors and keep going, failing at the end.
	bad := 0
	for _, f := range files {
		if err := describeFile(stdout, f); err != nil {
			fmt.Fprintf(stderr, "acic-trace: %s: %v\n", f, err)
			bad++
		}
	}
	if bad > 0 {
		return fail("%d of %d files unreadable", bad, len(files))
	}
	return 0
}

// describeQuarantine summarizes a store directory's quarantine/ subdir:
// entries the engine moved aside as undecodable (and regenerated), each
// with the reason its .reason companion recorded. Silent when the store
// has never quarantined anything.
func describeQuarantine(w io.Writer, dir string) {
	qdir := filepath.Join(dir, engine.QuarantineDirName)
	entries, err := os.ReadDir(qdir)
	if err != nil || len(entries) == 0 {
		return
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".reason") {
			continue
		}
		n++
		reason := "(no reason file)"
		if data, err := os.ReadFile(filepath.Join(qdir, e.Name()+".reason")); err == nil {
			// The "error:" line carries the decode failure; fall back to
			// the whole file when the format is unexpected.
			reason = strings.TrimSpace(string(data))
			if _, after, ok := strings.Cut(string(data), "error: "); ok {
				reason, _, _ = strings.Cut(after, "\n")
			}
		}
		fmt.Fprintf(w, "%s: quarantined  %s\n", filepath.Join(qdir, e.Name()), reason)
	}
	if n > 0 {
		fmt.Fprintf(w, "%s: %d quarantined entries (undecodable; regenerated on demand — delete the directory once diagnosed)\n", qdir, n)
	}
}

// describeFile prints one container's layout: name, sections, sizes, and
// element counts where the payload encoding carries one.
func describeFile(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	name, secs, err := trace.ParseContainer(data)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: v2 container %q, %d sections, %d bytes\n", path, name, len(secs), len(data))
	var instCount, instBytes uint64
	for _, s := range secs {
		fmt.Fprintf(w, "  %s  %8d bytes%s\n", s.Tag, len(s.Data), sectionDetail(s))
		if s.Tag == trace.SecInstsZ {
			if count, n := binary.Uvarint(s.Data); n > 0 {
				instCount += count
				instBytes += uint64(len(s.Data))
			}
		}
	}
	// Instruction sections may be chunked (one per streamed prepare
	// window); summarize the whole stream's density in one line.
	if instCount > 0 {
		raw := instCount * instRecordBytes
		fmt.Fprintf(w, "  instructions: %d in %d encoded bytes = %.2f bytes/inst (raw %d bytes, %.1fx packed)\n",
			instCount, instBytes, float64(instBytes)/float64(instCount), raw, float64(raw)/float64(instBytes))
	}
	return nil
}

// instRecordBytes is the in-memory size of one trace.Inst record — the
// "raw" side of the inspect output's packing ratios.
const instRecordBytes = 32

// sectionRawWidth returns the decoded per-element width of a section's
// payload, or 0 when the encoding carries no element count.
func sectionRawWidth(tag string) uint64 {
	switch tag {
	case trace.SecInstsZ:
		return instRecordBytes
	case trace.SecBlocks:
		return 8
	case trace.SecDesc:
		return 1
	}
	return 0
}

// sectionDetail decodes the element count of the known section encodings
// and reports the raw (decoded) size next to the encoded one.
func sectionDetail(s trace.Section) string {
	var count uint64
	switch s.Tag {
	case trace.SecInstsZ, trace.SecBlocks:
		c, n := binary.Uvarint(s.Data)
		if n <= 0 {
			return ""
		}
		count = c
	case trace.SecDesc:
		count = uint64(len(s.Data))
	default:
		return ""
	}
	raw := count * sectionRawWidth(s.Tag)
	if raw == 0 || len(s.Data) == 0 {
		return fmt.Sprintf("  %d entries", count)
	}
	return fmt.Sprintf("  %d entries, raw %d bytes, %.2fx packed", count, raw, float64(raw)/float64(len(s.Data)))
}

func characterize(w io.Writer, tr *trace.Trace) {
	fmt.Fprintf(w, "trace %q: %d instructions\n", tr.Name, tr.Len())
	fmt.Fprintf(w, "code footprint: %d blocks (%.1f KB)\n", tr.Footprint(), float64(tr.Footprint())*64/1024)

	classes := map[string]int{}
	for i := range tr.Insts {
		classes[tr.Insts[i].Class.String()]++
	}
	t := &stats.Table{Header: []string{"class", "count", "fraction"}}
	for _, c := range []string{"alu", "load", "store", "br", "jmp", "call", "ret", "ind"} {
		if classes[c] > 0 {
			t.AddRow(c, classes[c], stats.Percent(float64(classes[c])/float64(tr.Len())))
		}
	}
	fmt.Fprint(w, t.String())

	blocks := tr.BlockAccesses()
	fr := analysis.InstReuseProfile(blocks, tr.RunLengths(), analysis.Fig1aEdges, cache.SampleFilter{}).Dist
	labels := []string{"0", "1-16", "16-512", "512-1024", "1024-10000", ">10000"}
	rt := &stats.Table{Header: []string{"reuse distance", "fraction"}}
	for i, f := range fr {
		rt.AddRow(labels[i], stats.Percent(f))
	}
	fmt.Fprint(w, rt.String())

	bs := analysis.Bursts(blocks, 16)
	fmt.Fprintf(w, "bursts: %d, mean length %.2f accesses, %.1f%% of accesses intra-burst\n",
		bs.Bursts, bs.MeanLength, bs.FracInBurst*100)
}
