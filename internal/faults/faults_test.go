package faults

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestParseValid(t *testing.T) {
	cases := []string{
		"",
		"seed=42",
		"io-err:p=0.01",
		"corrupt-artifact:p=1",
		"panic-cell:every=97",
		"io-err:p=0.01;corrupt-artifact:p=0.005;panic-cell:every=97;seed=7",
		" io-err:p=0.5 ; seed=1 ;",
	}
	for _, spec := range cases {
		if err := Validate(spec); err != nil {
			t.Errorf("Validate(%q) = %v, want nil", spec, err)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"bogus", "not class:param=value"},
		{"warp-core:p=0.1", "unknown class"},
		{"io-err:p=2", "probability"},
		{"io-err:p=-0.5", "probability"},
		{"io-err:every=0", "positive integer"},
		{"io-err:q=0.5", "unknown parameter"},
		{"io-err:p=0.5,every=3", "mutually exclusive"},
		{"io-err:", "key=value"},
		{"panic-cell:p=0;seed=1", "needs p= or every="},
		{"seed=xyz", "bad seed"},
	}
	for _, c := range cases {
		err := Validate(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Validate(%q) = %v, want error containing %q", c.spec, err, c.wantSub)
		}
	}
}

func TestEveryIsPeriodic(t *testing.T) {
	in, err := Parse("panic-cell:every=5")
	if err != nil {
		t.Fatal(err)
	}
	// Per key, every=5 fires on exactly one attempt in five, at a
	// key-derived phase; across keys the first attempts fire about one
	// time in five.
	firstFires := 0
	for k := 0; k < 200; k++ {
		key := fmt.Sprint("cell-", k)
		var fires []int64
		for i := 0; i < 20; i++ {
			if hit, attempt, _ := in.fire(PanicCell, "compute", key); hit {
				if attempt != int64(i) {
					t.Fatalf("%s: draw %d reported attempt %d", key, i, attempt)
				}
				fires = append(fires, attempt)
			}
		}
		if len(fires) != 4 || fires[0] >= 5 {
			t.Fatalf("%s: fires = %v, want 4 fires starting in the first 5 attempts", key, fires)
		}
		for i := 1; i < len(fires); i++ {
			if fires[i]-fires[i-1] != 5 {
				t.Fatalf("%s: fires = %v, want a period of 5", key, fires)
			}
		}
		if fires[0] == 0 {
			firstFires++
		}
	}
	if firstFires < 20 || firstFires > 60 {
		t.Fatalf("%d of 200 keys fired on their first attempt, want about 40", firstFires)
	}
}

func TestProbabilityEndpointsAndDeterminism(t *testing.T) {
	always, _ := Parse("io-err:p=1")
	for i := 0; i < 100; i++ {
		if hit, _, _ := always.fire(IOErr, "load", fmt.Sprint(i%7)); !hit {
			t.Fatalf("p=1 draw %d did not fire", i)
		}
	}
	// Two injectors with the same spec fire on the same (key, attempt)s.
	a, _ := Parse("io-err:p=0.3;seed=11")
	b, _ := Parse("io-err:p=0.3;seed=11")
	for i := 0; i < 1000; i++ {
		key := fmt.Sprint(i % 37)
		ha, _, _ := a.fire(IOErr, "load", key)
		hb, _, _ := b.fire(IOErr, "load", key)
		if ha != hb {
			t.Fatalf("draw %d diverged between identical injectors", i)
		}
	}
	if a.fired[IOErr].Load() == 0 {
		t.Fatal("p=0.3 never fired in 1000 draws")
	}
}

// TestDecisionsIndependentOfScheduling: the decision for each (site, key,
// attempt) is the same whether the keys are drawn in order on one
// goroutine or interleaved across many.
func TestDecisionsIndependentOfScheduling(t *testing.T) {
	const spec = "panic-cell:every=3;io-err:p=0.4;seed=5"
	const keys, attempts = 64, 6
	draw := func(in *Injector, k int) [2][attempts]bool {
		var out [2][attempts]bool
		for a := 0; a < attempts; a++ {
			out[0][a], _, _ = in.fire(PanicCell, "gang", fmt.Sprint(k))
			out[1][a], _, _ = in.fire(IOErr, "store", fmt.Sprint(k))
		}
		return out
	}
	serial, _ := Parse(spec)
	want := make([][2][attempts]bool, keys)
	for k := range want {
		want[k] = draw(serial, k)
	}
	for run := 0; run < 5; run++ {
		conc, _ := Parse(spec)
		got := make([][2][attempts]bool, keys)
		var wg sync.WaitGroup
		for k := keys - 1; k >= 0; k-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[k] = draw(conc, k)
			}()
		}
		wg.Wait()
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("run %d key %d: concurrent decisions %v, serial %v", run, k, got[k], want[k])
			}
		}
	}
}

func TestInstallHooksAndSnapshot(t *testing.T) {
	defer Install("")
	if err := Install("io-err:p=1;corrupt-artifact:p=1;panic-cell:every=1;seed=9"); err != nil {
		t.Fatal(err)
	}
	if !FailIO("load", "k") {
		t.Fatal("FailIO did not fire with p=1")
	}
	orig := bytes.Repeat([]byte{0xAA}, 64)
	data := append([]byte(nil), orig...)
	Corrupt("k", data)
	if bytes.Equal(data, orig) {
		t.Fatal("Corrupt did not flip a bit with p=1")
	}
	diff := 0
	for i := range data {
		if data[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("Corrupt changed %d bytes, want exactly 1", diff)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil || !IsInjected(r) {
				t.Fatalf("PanicPoint recovered %v, want *Injected", r)
			}
		}()
		PanicPoint("test", "k")
	}()
	s := Snapshot()
	if s.IOErrs != 1 || s.Corruptions != 1 || s.Panics != 1 {
		t.Fatalf("Snapshot = %+v, want one fire per class", s)
	}
	if s.Spec == "" {
		t.Fatal("Snapshot.Spec empty with injector installed")
	}
}

func TestUninstalledHooksAreInert(t *testing.T) {
	Install("")
	if FailIO("load", "k") {
		t.Fatal("FailIO fired with no injector")
	}
	data := []byte{1, 2, 3}
	Corrupt("k", data)
	if data[0] != 1 || data[1] != 2 || data[2] != 3 {
		t.Fatal("Corrupt mutated data with no injector")
	}
	PanicPoint("test", "k") // must not panic
	if s := Snapshot(); s != (Stats{}) {
		t.Fatalf("Snapshot = %+v, want zero", s)
	}
}

func TestIsInjectedRejectsOtherPanics(t *testing.T) {
	if IsInjected("boom") || IsInjected(42) || IsInjected(nil) {
		t.Fatal("IsInjected accepted a non-injected value")
	}
}

func TestNetErrClass(t *testing.T) {
	if err := Validate("net-err:p=0.25;seed=3"); err != nil {
		t.Fatalf("Validate(net-err) = %v, want nil", err)
	}
	if err := Install("net-err:p=1;seed=3"); err != nil {
		t.Fatal(err)
	}
	defer Install("")
	for i := 0; i < 3; i++ {
		if !FailNet("get", "k") {
			t.Fatalf("FailNet() draw %d = false under p=1", i)
		}
	}
	// The other hooks stay inert: net-err must never bleed into local
	// store I/O or compute paths.
	if FailIO("load", "k") {
		t.Fatal("FailIO fired under a net-err-only spec")
	}
	PanicPoint("compute", "k") // must not panic
	if got := Snapshot().NetErrs; got != 3 {
		t.Fatalf("Snapshot().NetErrs = %d, want 3", got)
	}
	if Snapshot().IOErrs != 0 || Snapshot().Panics != 0 {
		t.Fatal("net-err draws leaked into other class counters")
	}
}

func TestFailNetUninstalledIsInert(t *testing.T) {
	Install("")
	if FailNet("get", "k") {
		t.Fatal("FailNet() fired with no injector installed")
	}
}
