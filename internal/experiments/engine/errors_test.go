package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"acic/internal/faults"
)

func noSleep(time.Duration) {}

func TestGuardConvertsPanicToCellError(t *testing.T) {
	_, err := Guard("app/acic/fdp", func() (int, error) {
		panic("boom")
	})
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("Guard returned %T, want *CellError", err)
	}
	if ce.Key != "app/acic/fdp" || ce.Panic != "boom" {
		t.Fatalf("CellError = %+v", ce)
	}
	if len(ce.StackDigest) != 12 || len(ce.Stack) == 0 {
		t.Fatalf("missing stack attribution: digest=%q stack=%d bytes", ce.StackDigest, len(ce.Stack))
	}
	if !strings.Contains(ce.Error(), "cell app/acic/fdp") || !strings.Contains(ce.Error(), ce.StackDigest) {
		t.Fatalf("Error() = %q", ce.Error())
	}
	if ce.Transient() {
		t.Fatal("genuine panic classified transient")
	}
}

func TestGuardPassesThroughValues(t *testing.T) {
	v, err := Guard("k", func() (int, error) { return 42, nil })
	if v != 42 || err != nil {
		t.Fatalf("Guard = %d, %v", v, err)
	}
	wantErr := errors.New("plain")
	_, err = Guard("k", func() (int, error) { return 0, wantErr })
	if err != wantErr {
		t.Fatalf("Guard rewrote plain error: %v", err)
	}
}

func TestInjectedPanicIsTransient(t *testing.T) {
	if err := faults.Install("panic-cell:every=1"); err != nil {
		t.Fatal(err)
	}
	defer faults.Install("")
	_, err := Guard("k", func() (int, error) {
		faults.PanicPoint("test", "k")
		return 0, nil
	})
	if !IsTransient(err) {
		t.Fatalf("injected panic not transient: %v", err)
	}
}

func TestMarkTransient(t *testing.T) {
	base := errors.New("io hiccup")
	err := MarkTransient(base)
	if !IsTransient(err) {
		t.Fatal("MarkTransient not transient")
	}
	if !errors.Is(err, base) {
		t.Fatal("MarkTransient broke error chain")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", err)) {
		t.Fatal("transience lost through wrapping")
	}
	if IsTransient(base) || IsTransient(nil) {
		t.Fatal("IsTransient false positive")
	}
	if MarkTransient(nil) != nil {
		t.Fatal("MarkTransient(nil) != nil")
	}
}

func TestRetryRecoversTransientFailures(t *testing.T) {
	calls := 0
	v, err, retries := Retry(RetryPolicy{Attempts: 3, Sleep: noSleep}, "k", func() (int, error) {
		calls++
		if calls < 3 {
			return 0, MarkTransient(errors.New("flaky"))
		}
		return 7, nil
	})
	if v != 7 || err != nil || retries != 2 || calls != 3 {
		t.Fatalf("Retry = (%d, %v, %d), calls = %d", v, err, retries, calls)
	}
}

func TestRetryDoesNotRetryDeterministicFailures(t *testing.T) {
	calls := 0
	_, err, retries := Retry(RetryPolicy{Attempts: 5, Sleep: noSleep}, "k", func() (int, error) {
		calls++
		return 0, errors.New("deterministic")
	})
	if calls != 1 || retries != 0 || err == nil {
		t.Fatalf("deterministic error retried: calls=%d retries=%d err=%v", calls, retries, err)
	}
	calls = 0
	_, err, _ = Retry(RetryPolicy{Attempts: 5, Sleep: noSleep}, "k", func() (int, error) {
		calls++
		panic("genuine bug")
	})
	var ce *CellError
	if calls != 1 || !errors.As(err, &ce) {
		t.Fatalf("genuine panic retried: calls=%d err=%v", calls, err)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	_, err, retries := Retry(RetryPolicy{Attempts: 3, Sleep: noSleep}, "k", func() (int, error) {
		calls++
		return 0, MarkTransient(errors.New("always flaky"))
	})
	if calls != 3 || retries != 2 || err == nil {
		t.Fatalf("exhaustion: calls=%d retries=%d err=%v", calls, retries, err)
	}
}

func TestRetryZeroPolicySingleAttempt(t *testing.T) {
	calls := 0
	_, _, retries := Retry(RetryPolicy{}, "k", func() (int, error) {
		calls++
		return 0, MarkTransient(errors.New("flaky"))
	})
	if calls != 1 || retries != 0 {
		t.Fatalf("zero policy: calls=%d retries=%d", calls, retries)
	}
}

func TestBackoffBounds(t *testing.T) {
	p := RetryPolicy{}
	base, cap := time.Millisecond, 100*time.Millisecond
	prev := base
	for i := 0; i < 100; i++ {
		d := p.backoff(base, cap, prev)
		if d < base || d > cap {
			t.Fatalf("backoff %v outside [%v, %v]", d, base, cap)
		}
		if hi := 3 * prev; hi < cap && d > hi {
			t.Fatalf("backoff %v above 3*prev=%v", d, hi)
		}
		prev = d
	}
}

func TestGroupRetriesTransientCompute(t *testing.T) {
	pool := NewPool(2)
	var calls atomic.Int64
	g := NewGroup(pool, func(k string) (int, error) {
		if calls.Add(1) < 3 {
			return 0, MarkTransient(errors.New("flaky"))
		}
		return len(k), nil
	})
	g.Retry = RetryPolicy{Attempts: 3, Sleep: noSleep}
	v, err := g.Get("abcd")
	if v != 4 || err != nil {
		t.Fatalf("Get = %d, %v", v, err)
	}
	if g.Retries() != 2 {
		t.Fatalf("Retries = %d, want 2", g.Retries())
	}
}

func TestGroupPanicFailsOnlyItsKey(t *testing.T) {
	pool := NewPool(2)
	g := NewGroup(pool, func(k string) (int, error) {
		if k == "bad" {
			panic("cell bug")
		}
		return len(k), nil
	})
	err := g.Require("ok", "bad", "fine")
	var ce *CellError
	if !errors.As(err, &ce) || ce.Key != "bad" {
		t.Fatalf("Require = %v, want CellError for bad", err)
	}
	if v, err := g.Get("ok"); v != 2 || err != nil {
		t.Fatalf("healthy key poisoned: %d, %v", v, err)
	}
	if v, err := g.Get("fine"); v != 4 || err != nil {
		t.Fatalf("healthy key poisoned: %d, %v", v, err)
	}
}

func TestPoolEachRecoversPanics(t *testing.T) {
	pool := NewPool(2)
	err := pool.Each(4, func(i int) error {
		if i == 1 {
			panic("task bug")
		}
		return nil
	})
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("Each = %v, want *CellError", err)
	}
	if pool.Running() != 0 {
		t.Fatalf("pool leaked slots: running=%d", pool.Running())
	}
}
