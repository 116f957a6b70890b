package engine

import (
	"errors"
	"sync"
	"testing"
)

// TestTryClaimOwnership: a claimed key is owned exactly once, per-key
// compute never runs for it, and Get waits for the external Fulfill.
func TestTryClaimOwnership(t *testing.T) {
	g := NewGroup(NewPool(2), func(k string) (int, error) {
		t.Errorf("compute ran for externally owned key %q", k)
		return 0, nil
	})
	if !g.TryClaim("a") {
		t.Fatal("first TryClaim must win")
	}
	if g.TryClaim("a") {
		t.Fatal("second TryClaim must lose")
	}

	got := make(chan int)
	go func() {
		v, err := g.Get("a")
		if err != nil {
			t.Errorf("Get: %v", err)
		}
		got <- v
	}()
	g.Fulfill("a", 42, nil)
	if v := <-got; v != 42 {
		t.Errorf("Get returned %d, want 42", v)
	}
	if g.Computed() != 1 {
		t.Errorf("Computed = %d, want 1", g.Computed())
	}

	// Errors propagate to every waiter, and Require reports them.
	if !g.TryClaim("b") {
		t.Fatal("claim of b must win")
	}
	wantErr := errors.New("boom")
	g.Fulfill("b", 0, wantErr)
	if err := g.Require("b"); !errors.Is(err, wantErr) {
		t.Errorf("Require error = %v, want %v", err, wantErr)
	}
}

// mapCache is an in-memory Cache for tests.
type mapCache struct {
	mu sync.Mutex
	m  map[string]int
}

func (c *mapCache) Load(k string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[k]
	return v, ok
}

func (c *mapCache) Store(k string, v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = v
}

// TestTryCacheAndFulfillPersist: TryCache completes owned keys from the
// cache (counting a hit, firing OnDone with fromCache), and Fulfill writes
// successes back so later groups hit them.
func TestTryCacheAndFulfillPersist(t *testing.T) {
	cache := &mapCache{m: map[string]int{"warm": 7}}
	g := NewGroup(NewPool(1), func(k string) (int, error) { return 0, errors.New("unused") })
	g.Cache = cache
	type event struct {
		key       string
		fromCache bool
	}
	var mu sync.Mutex
	var events []event
	g.OnDone = func(k string, fromCache bool, err error) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, event{k, fromCache})
	}

	if !g.TryClaim("warm") {
		t.Fatal("claim must win")
	}
	if !g.TryCache("warm") {
		t.Fatal("TryCache must hit the warm entry")
	}
	if v, err := g.Get("warm"); v != 7 || err != nil {
		t.Errorf("Get(warm) = %d, %v", v, err)
	}
	if g.CacheHits() != 1 {
		t.Errorf("CacheHits = %d, want 1", g.CacheHits())
	}

	if !g.TryClaim("cold") {
		t.Fatal("claim must win")
	}
	if g.TryCache("cold") {
		t.Fatal("TryCache must miss a cold entry")
	}
	g.Fulfill("cold", 9, nil)
	if v, ok := cache.Load("cold"); !ok || v != 9 {
		t.Errorf("Fulfill did not persist: %d, %v", v, ok)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 || !events[0].fromCache || events[1].fromCache {
		t.Errorf("OnDone events = %+v", events)
	}
}

// TestTryClaimAfterCompute: keys that already ran through the normal path
// cannot be claimed.
func TestTryClaimAfterCompute(t *testing.T) {
	g := NewGroup(NewPool(1), func(k string) (int, error) { return len(k), nil })
	if _, err := g.Get("xyz"); err != nil {
		t.Fatal(err)
	}
	if g.TryClaim("xyz") {
		t.Error("TryClaim must lose against a computed key")
	}
}
