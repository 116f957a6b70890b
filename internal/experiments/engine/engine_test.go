package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGroupSingleflight(t *testing.T) {
	var calls atomic.Int64
	g := NewGroup(NewPool(4), func(k string) (string, error) {
		calls.Add(1)
		return "v:" + k, nil
	})
	const goroutines = 32
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := g.Get("a")
			if err != nil || v != "v:a" {
				t.Errorf("Get = %q, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("compute ran %d times for one key, want 1", n)
	}
	if n := g.Computed(); n != 1 {
		t.Errorf("Computed() = %d, want 1", n)
	}
}

func TestRequireDedupes(t *testing.T) {
	var calls atomic.Int64
	g := NewGroup(NewPool(8), func(k int) (int, error) {
		calls.Add(1)
		return k * k, nil
	})
	// Repeats within the batch, plus a key already computed via Get.
	if _, err := g.Get(3); err != nil {
		t.Fatal(err)
	}
	if err := g.Require(1, 2, 3, 1, 2, 3, 4); err != nil {
		t.Fatal(err)
	}
	if err := g.Require(1, 2, 3, 4); err != nil { // all hot
		t.Fatal(err)
	}
	if n := calls.Load(); n != 4 {
		t.Errorf("compute ran %d times, want 4 (keys 1..4 once each)", n)
	}
	if v, err := g.Get(2); err != nil || v != 4 {
		t.Errorf("Get(2) = %d, %v", v, err)
	}
	if n := calls.Load(); n != 4 {
		t.Error("hot Get must not recompute")
	}
}

func TestRequireFirstErrorInArgOrder(t *testing.T) {
	errB := errors.New("b failed")
	errD := errors.New("d failed")
	g := NewGroup(NewPool(4), func(k string) (int, error) {
		switch k {
		case "b":
			return 0, errB
		case "d":
			return 0, errD
		}
		return 1, nil
	})
	for i := 0; i < 10; i++ { // error choice must be deterministic
		g2 := NewGroup(NewPool(4), g.compute)
		if err := g2.Require("a", "b", "c", "d"); !errors.Is(err, errB) {
			t.Fatalf("Require error = %v, want errB", err)
		}
	}
	// Errors are memoized like values.
	if _, err := g.Get("b"); !errors.Is(err, errB) {
		t.Errorf("Get after failed Require = %v, want errB", err)
	}
}

// TestGetHelpRunsClaimedCell reproduces the cross-group deadlock: with a
// width-1 pool, group B's task occupies the only slot and Gets a key that
// group A's Require has claimed but cannot start (A is blocked waiting
// for B's slot). B's Get must help-run the claimed cell instead of
// waiting on it, or both sides wait forever.
func TestGetHelpRunsClaimedCell(t *testing.T) {
	pool := NewPool(1)
	inner := NewGroup(pool, func(k string) (string, error) { return "w:" + k, nil })
	bRunning := make(chan struct{})
	aClaimed := make(chan struct{})
	outer := NewGroup(pool, func(k string) (string, error) {
		close(bRunning) // B now owns the only slot
		<-aClaimed      // wait until A has claimed "w" and is stuck
		return inner.Get("w")
	})

	errA := make(chan error, 1)
	errB := make(chan error, 1)
	go func() { errB <- outer.Require("x") }()
	go func() {
		<-bRunning
		errA <- inner.Require("w")
	}()
	go func() {
		// Give A's Require time to claim "w" and block on the slot; the
		// sleep only makes the pre-fix deadlock window reliable, the
		// post-fix path is timing-independent.
		<-bRunning
		time.Sleep(50 * time.Millisecond)
		close(aClaimed)
	}()

	for i := 0; i < 2; i++ {
		select {
		case err := <-errA:
			if err != nil {
				t.Fatal(err)
			}
		case err := <-errB:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("deadlock: Require claimed a cell its waiters hold the slots for")
		}
	}
	if v, _ := outer.Get("x"); v != "w:w" {
		t.Errorf("Get(x) = %q", v)
	}
	if n := inner.Computed(); n != 1 {
		t.Errorf("inner computed %d times, want 1", n)
	}
}

func TestNestedGetFromPoolTaskDoesNotDeadlock(t *testing.T) {
	// A results-style group whose compute calls Get on a workloads-style
	// group, with a pool of width 1: inline compute in Get must prevent
	// the classic nested-pool deadlock.
	pool := NewPool(1)
	inner := NewGroup(pool, func(k string) (string, error) { return "w:" + k, nil })
	outer := NewGroup(pool, func(k string) (string, error) {
		w, err := inner.Get(k)
		return "r:" + w, err
	})
	if err := outer.Require("x", "y", "z"); err != nil {
		t.Fatal(err)
	}
	if v, _ := outer.Get("x"); v != "r:w:x" {
		t.Errorf("Get = %q", v)
	}
}

func TestPoolEach(t *testing.T) {
	p := NewPool(3)
	if p.Width() != 3 {
		t.Errorf("Width = %d", p.Width())
	}
	var running, peak atomic.Int64
	out := make([]int, 50)
	err := p.Each(len(out), func(i int) error {
		n := running.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		out[i] = i * 2
		running.Add(-1)
		if i == 7 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "boom 7" {
		t.Errorf("Each error = %v, want boom 7 (lowest index)", err)
	}
	if peak.Load() > 3 {
		t.Errorf("peak concurrency %d exceeds pool width 3", peak.Load())
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d: every index must run even after an error", i, v)
		}
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	type result struct {
		Cycles int64
		MPKI   float64
	}
	dir := t.TempDir()
	c, err := NewDiskCache[string, result](dir, func(k string) string { return "v1|" + k })
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load("a"); ok {
		t.Error("empty cache must miss")
	}
	want := result{Cycles: 12345, MPKI: 3.25}
	c.Store("a", want)
	got, ok := c.Load("a")
	if !ok || got != want {
		t.Errorf("Load = %+v, %v; want %+v", got, ok, want)
	}
	// A second cache over the same dir sees the entry (persistence).
	c2, err := NewDiskCache[string, result](dir, func(k string) string { return "v1|" + k })
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.Load("a"); !ok || got != want {
		t.Errorf("persisted Load = %+v, %v", got, ok)
	}
	// Different canonical keys must not collide.
	if _, ok := c2.Load("b"); ok {
		t.Error("distinct key must miss")
	}
}

func TestGroupUsesCache(t *testing.T) {
	dir := t.TempDir()
	keyFn := func(k string) string { return "v1|" + k }
	newGroup := func() *Group[string, int] {
		c, err := NewDiskCache[string, int](dir, keyFn)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGroup(NewPool(2), func(k string) (int, error) {
			if k == "bad" {
				return 0, errors.New("bad key")
			}
			return len(k), nil
		})
		g.Cache = c
		return g
	}

	g1 := newGroup()
	var fromCache atomic.Int64
	g1.OnDone = func(_ string, cached bool, _ error) {
		if cached {
			fromCache.Add(1)
		}
	}
	if err := g1.Require("alpha", "beta"); err != nil {
		t.Fatal(err)
	}
	if g1.Computed() != 2 || g1.CacheHits() != 0 || fromCache.Load() != 0 {
		t.Errorf("first run: computed=%d hits=%d", g1.Computed(), g1.CacheHits())
	}
	// Errors must not be cached.
	if _, err := g1.Get("bad"); err == nil {
		t.Fatal("want error")
	}

	g2 := newGroup()
	if err := g2.Require("alpha", "beta"); err != nil {
		t.Fatal(err)
	}
	if g2.Computed() != 0 || g2.CacheHits() != 2 {
		t.Errorf("second run: computed=%d hits=%d, want 0/2", g2.Computed(), g2.CacheHits())
	}
	if v, err := g2.Get("alpha"); err != nil || v != 5 {
		t.Errorf("cached value = %d, %v", v, err)
	}
	if _, err := g2.Get("bad"); err == nil {
		t.Error("failed key must recompute and fail again, not hit cache")
	}
}

// TestGroupForget: a completed key — success or failure — can be dropped
// from the memo so the next demand recomputes, while an in-flight key is
// left alone (forgetting it would strand waiters). This is what lets the
// distributed worker retry a transiently failed cell the coordinator
// requeues to it.
func TestGroupForget(t *testing.T) {
	var calls atomic.Int64
	fail := atomic.Bool{}
	fail.Store(true)
	g := NewGroup(NewPool(2), func(k string) (string, error) {
		calls.Add(1)
		if fail.Load() {
			return "", errors.New("transient blip")
		}
		return "v:" + k, nil
	})

	if g.Forget("a") {
		t.Error("Forget of an unclaimed key returned true")
	}
	if _, err := g.Get("a"); err == nil {
		t.Fatal("first Get should fail")
	}
	if _, err := g.Get("a"); err == nil {
		t.Fatal("memoized error should replay without Forget")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times before Forget, want 1", n)
	}
	if !g.Forget("a") {
		t.Fatal("Forget of a completed key returned false")
	}
	fail.Store(false)
	if v, err := g.Get("a"); err != nil || v != "v:a" {
		t.Fatalf("Get after Forget = %q, %v", v, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("compute ran %d times after Forget, want 2", n)
	}

	// An in-flight key must not be forgettable.
	hold := make(chan struct{})
	entered := make(chan struct{})
	g2 := NewGroup(NewPool(2), func(k string) (string, error) {
		close(entered)
		<-hold
		return k, nil
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		g2.Get("slow")
	}()
	<-entered
	if g2.Forget("slow") {
		t.Error("Forget of an in-flight key returned true")
	}
	close(hold)
	<-done
	if !g2.Forget("slow") {
		t.Error("Forget after completion returned false")
	}
}

// TestGroupForgetTransient: only completed keys whose memoized outcome
// is a transient error are dropped — successes and deterministic errors
// stand, and the sweep variant counts exactly the poisoned keys. ForgetIf
// drops a deterministic error its predicate accepts, and nothing else.
func TestGroupForgetTransient(t *testing.T) {
	mode := map[string]error{
		"ok":    nil,
		"det":   errors.New("deterministic bug"),
		"blip":  MarkTransient(errors.New("injected blip")),
		"blip2": MarkTransient(errors.New("another blip")),
	}
	var calls atomic.Int64
	g := NewGroup(NewPool(2), func(k string) (string, error) {
		calls.Add(1)
		return "v:" + k, mode[k]
	})
	for k := range mode {
		g.Get(k)
	}

	if g.ForgetTransient("missing") {
		t.Error("ForgetTransient of an unclaimed key returned true")
	}
	if g.ForgetTransient("ok") {
		t.Error("ForgetTransient dropped a successful key")
	}
	if g.ForgetTransient("det") {
		t.Error("ForgetTransient dropped a deterministic error")
	}
	if !g.ForgetTransient("blip") {
		t.Error("ForgetTransient kept a transient error")
	}
	if n := g.ForgetAllTransient(); n != 1 {
		t.Errorf("ForgetAllTransient dropped %d keys, want 1 (blip2)", n)
	}
	isDet := func(err error) bool { return err == mode["det"] }
	if g.ForgetIf("ok", isDet) || g.ForgetIf("missing", isDet) {
		t.Error("ForgetIf dropped a success or an unclaimed key")
	}
	if !g.ForgetIf("det", isDet) {
		t.Error("ForgetIf kept an error it accepts")
	}

	// The survivors replay from the memo; the dropped keys recompute.
	before := calls.Load()
	for k := range mode {
		g.Get(k)
	}
	if n := calls.Load() - before; n != 3 {
		t.Errorf("recomputed %d keys after the sweeps, want 3", n)
	}

	// An in-flight key is left alone even if it will fail transiently.
	hold := make(chan struct{})
	entered := make(chan struct{})
	g2 := NewGroup(NewPool(2), func(k string) (string, error) {
		close(entered)
		<-hold
		return "", MarkTransient(errors.New("slow blip"))
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		g2.Get("slow")
	}()
	<-entered
	if g2.ForgetTransient("slow") || g2.ForgetAllTransient() != 0 {
		t.Error("in-flight key was forgotten")
	}
	close(hold)
	<-done
	if !g2.ForgetTransient("slow") {
		t.Error("completed transient failure was not forgotten")
	}
}
