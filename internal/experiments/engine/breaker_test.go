package engine

import (
	"errors"
	"testing"
	"time"
)

// fakeClock gives breaker tests a deterministic time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	b := NewBreaker(threshold, cooldown)
	b.now = clock.now
	return b, clock
}

var errDet = errors.New("deterministic boom")

// TestBreakerTripsAtThreshold: deterministic failures below the
// threshold keep the key closed; the Nth trips it.
func TestBreakerTripsAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	for i := 0; i < 2; i++ {
		if !b.Allow("k") {
			t.Fatalf("closed key refused at fail %d", i)
		}
		b.Record("k", errDet)
		if b.Open("k") {
			t.Fatalf("tripped after only %d failures", i+1)
		}
	}
	b.Record("k", errDet)
	if !b.Open("k") {
		t.Error("not open after threshold deterministic failures")
	}
	if b.Allow("k") {
		t.Error("open key admitted work before cooldown")
	}
	if n := b.OpenCount(); n != 1 {
		t.Errorf("OpenCount = %d, want 1", n)
	}
}

// TestBreakerSuccessResets: a success anywhere in the streak forgets
// the history entirely, entry included.
func TestBreakerSuccessResets(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	b.Record("k", errDet)
	b.Record("k", errDet)
	b.Record("other", errDet)
	if n := b.Len(); n != 2 {
		t.Errorf("Len = %d after failures on two keys, want 2", n)
	}
	b.Record("k", nil)
	if n := b.Len(); n != 1 {
		t.Errorf("Len = %d after a success on one of two failing keys, want 1", n)
	}
	b.Record("k", errDet)
	b.Record("k", errDet)
	if b.Open("k") {
		t.Error("streak survived an intervening success")
	}
}

// TestBreakerTransientNeutral: transient errors never trip the breaker,
// no matter how many arrive — environmental noise is not evidence
// against the cell.
func TestBreakerTransientNeutral(t *testing.T) {
	b, _ := newTestBreaker(2, time.Minute)
	for i := 0; i < 10; i++ {
		b.Record("k", MarkTransient(errors.New("net hiccup")))
	}
	if b.Open("k") {
		t.Error("transient errors tripped the breaker")
	}
	// Nor do they erase a deterministic streak in progress.
	b.Record("k", errDet)
	b.Record("k", MarkTransient(errors.New("net hiccup")))
	b.Record("k", errDet)
	if !b.Open("k") {
		t.Error("transient error reset the deterministic streak")
	}
}

// TestBreakerHalfOpenProbe walks the full open → probe → verdict cycle
// in both directions.
func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clock := newTestBreaker(1, time.Minute)
	b.Record("k", errDet)
	if !b.Open("k") {
		t.Fatal("threshold 1 did not trip on first failure")
	}
	if b.Allow("k") {
		t.Fatal("admitted before cooldown")
	}
	clock.advance(time.Minute)
	if !b.Allow("k") {
		t.Fatal("no probe admitted after cooldown")
	}
	// Exactly one probe: a second concurrent request still refuses.
	if b.Allow("k") {
		t.Error("second probe admitted while first in flight")
	}
	// Failed probe re-arms the cooldown from now.
	b.Record("k", errDet)
	if b.Allow("k") {
		t.Error("admitted immediately after failed probe")
	}
	clock.advance(time.Minute)
	if !b.Allow("k") {
		t.Fatal("no probe after second cooldown")
	}
	// Successful probe closes the key for good.
	b.Record("k", nil)
	if b.Open("k") {
		t.Error("open after successful probe")
	}
	if !b.Allow("k") {
		t.Error("closed key refused")
	}
}

// TestBreakerTransientProbe: a probe that dies transiently proved
// nothing — the key stays open but the next Allow may probe again
// without waiting out a whole fresh cooldown.
func TestBreakerTransientProbe(t *testing.T) {
	b, clock := newTestBreaker(1, time.Minute)
	b.Record("k", errDet)
	clock.advance(time.Minute)
	if !b.Allow("k") {
		t.Fatal("no probe after cooldown")
	}
	b.Record("k", MarkTransient(errors.New("worker died")))
	if !b.Open("k") {
		t.Error("transient probe outcome closed the key")
	}
	if !b.Allow("k") {
		t.Error("no immediate re-probe after transient probe outcome")
	}
}

// TestBreakerKeysIndependent: keys trip independently.
func TestBreakerKeysIndependent(t *testing.T) {
	b, _ := newTestBreaker(1, time.Minute)
	b.Record("bad", errDet)
	if !b.Open("bad") || b.Open("good") {
		t.Errorf("Open(bad)=%v Open(good)=%v", b.Open("bad"), b.Open("good"))
	}
	if !b.Allow("good") {
		t.Error("unrelated key refused")
	}
}

// TestBreakerDefaults: zero options resolve to the documented defaults.
func TestBreakerDefaults(t *testing.T) {
	b := NewBreaker(0, 0)
	if b.threshold != DefaultBreakerThreshold || b.cooldown != DefaultBreakerCooldown {
		t.Errorf("defaults = (%d, %v)", b.threshold, b.cooldown)
	}
}
