package experiments

import (
	"fmt"
	"testing"

	"acic/internal/workload"
)

// TestGoldenKeys pins the persistent keys at n=400000 as literal strings.
// A result cache or artifact store filled by an earlier build is found
// only while these stay byte-identical, and acic-serve's ETags derive
// from them. A deliberate key change bumps cacheSchemaVersion and
// rewrites these literals in the same change.
func TestGoldenKeys(t *testing.T) {
	const prefix = "v5|cfg:bc01c124a4baffd9c55e317250a8e0f3|profile:"
	const media = "6a7fe138ca3b9a9ec49cae7909291b1213aec2f4d88a1c9570ddef506d20dacb"
	s := NewSuite(400_000)
	pl, err := NewPipeline(PipelineConfig{N: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, got, want string }{
		{"CellKey media-streaming/acic/fdp",
			s.CellKey(Cell{App: "media-streaming", Scheme: "acic", Prefetcher: "fdp"}),
			prefix + media + "|n:400000|scheme:acic|pf:fdp|warmup:0.1|sample:full"},
		{"CellKey of an unregistered app",
			s.CellKey(Cell{App: "no-such-app", Scheme: "acic", Prefetcher: "fdp"}),
			prefix + "unknown:no-such-app|n:400000|scheme:acic|pf:fdp|warmup:0.1|sample:full"},
		{"GridKey", s.GridKey(), "a8288910f025901d1683069f748bf46a"},
		{"Pipeline.storeKey media-streaming", pl.storeKey("media-streaming"),
			prefix + media + "|n:400000|stage:workload"},
		// The sampled lane's default constituency derives from the digest.
		{"sampleOffsetFor", fmt.Sprint(sampleOffsetFor(8, "media-streaming"), sampleOffsetFor(8, "no-such-app")), "5 4"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, tc.got, tc.want)
		}
	}
}

// TestUnknownAppsLeaveNoDigestState: the digest table holds one entry per
// registered profile, however many unregistered names are keyed.
func TestUnknownAppsLeaveNoDigestState(t *testing.T) {
	s := NewSuite(400_000)
	for i := range 1000 {
		s.CellKey(Cell{App: fmt.Sprintf("no-such-app-%d", i), Scheme: "acic", Prefetcher: "fdp"})
	}
	if got, want := len(profileDigests()), len(workload.All()); got != want {
		t.Errorf("digest table holds %d entries, want %d (one per registered profile)", got, want)
	}
}

// TestUnknownNamesLeaveNoMemo: cells and workloads naming an app, scheme
// or prefetcher that no registry holds fail with the error their compute
// would return, through Result, Require, Workload and PrepareAll alike,
// and add nothing to the result or workload memo.
func TestUnknownNamesLeaveNoMemo(t *testing.T) {
	s := NewSuite(2000)
	s.Workers = 1
	if _, err := s.Result("sibench", "lru", "fdp"); err != nil {
		t.Fatal(err)
	}
	cells, workloads := s.MemoSizes()
	for i := range 1000 {
		app, scheme, pf := "sibench", "acic", "fdp"
		var want string
		switch i % 3 {
		case 0:
			app = fmt.Sprintf("no-such-app-%d", i)
			want = fmt.Sprintf("experiments: unknown workload %q", app)
		case 1:
			scheme = fmt.Sprintf("no-such-scheme-%d", i)
			want = fmt.Sprintf("experiments: unknown scheme %q", scheme)
		case 2:
			pf = fmt.Sprintf("no-such-pf-%d", i)
			want = fmt.Sprintf("experiments: unknown prefetcher %q", pf)
		}
		if _, err := s.Result(app, scheme, pf); err == nil || err.Error() != want {
			t.Fatalf("Result(%s, %s, %s) error %v, want %s", app, scheme, pf, err, want)
		}
		if err := s.Require(Cell{"sibench", "lru", "fdp"}, Cell{app, scheme, pf}); err == nil || err.Error() != want {
			t.Fatalf("Require error %v, want %s", err, want)
		}
		if i%3 == 0 {
			if _, err := s.Workload(app); err == nil || err.Error() != want {
				t.Fatalf("Workload(%s) error %v, want %s", app, err, want)
			}
			if err := s.PrepareAll("sibench", app); err == nil || err.Error() != want {
				t.Fatalf("PrepareAll error %v, want %s", err, want)
			}
		}
	}
	if c, w := s.MemoSizes(); c != cells || w != workloads {
		t.Errorf("memos hold %d cells and %d workloads after 1,000 unknown names, want %d and %d", c, w, cells, workloads)
	}
}

// BenchmarkCellKey measures deriving one registered cell's key.
func BenchmarkCellKey(b *testing.B) {
	s := NewSuite(400_000)
	c := Cell{App: "media-streaming", Scheme: "acic", Prefetcher: "fdp"}
	b.ReportAllocs()
	for range b.N {
		s.CellKey(c)
	}
}
