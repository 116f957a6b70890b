package engine

import (
	"sync"
	"time"
)

// Breaker is a per-key circuit breaker over the engine's error taxonomy
// (errors.go). It exists for long-lived servers: a deterministic
// CellError is memoized by Group and harmless in a batch run, but a
// server that Forgets failed cells to keep them retryable would burn a
// full simulation per probe of a permanently broken cell. The breaker
// sits in front of that recompute: consecutive deterministic failures
// trip the key open, and while open the caller answers instantly
// (CodeCircuitOpen upstream) instead of re-running doomed work.
//
// Classification follows the taxonomy's split exactly:
//
//   - success closes the key and forgets its history;
//   - a transient error (IsTransient) is neutral — it neither trips nor
//     closes, because environmental noise says nothing about the cell;
//   - a deterministic error extends the streak, tripping at Threshold.
//
// After Cooldown a single probe is admitted (half-open): Allow returns
// true exactly once, and the matching Record either closes the key or
// re-arms the cooldown. The zero value is not usable; call NewBreaker.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu      sync.Mutex
	entries map[string]*breakerState
}

type breakerState struct {
	fails    int       // consecutive deterministic failures
	open     bool      // tripped
	openedAt time.Time // when the current open period started
	probing  bool      // the one half-open probe is in flight
}

// DefaultBreakerThreshold and DefaultBreakerCooldown are the serve
// daemon's defaults: three identical deterministic failures in a row
// are no longer a coincidence, and half a minute bounds how stale a
// "known broken" verdict can get.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 30 * time.Second
)

// NewBreaker returns a breaker tripping each key after threshold
// consecutive deterministic failures (<=0 = DefaultBreakerThreshold)
// and admitting a probe after cooldown (<=0 = DefaultBreakerCooldown).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &Breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		entries:   make(map[string]*breakerState),
	}
}

// Allow reports whether work on key may proceed. Closed keys always
// pass. An open key refuses until Cooldown has elapsed, then admits
// exactly one probe; further Allows refuse again until that probe's
// Record settles the verdict.
func (b *Breaker) Allow(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.entries[key]
	if !ok || !st.open {
		return true
	}
	if st.probing || b.now().Sub(st.openedAt) < b.cooldown {
		return false
	}
	st.probing = true
	return true
}

// Record reports the outcome of work Allow admitted. A nil error closes
// the key; a transient error is neutral (clears any probe without
// extending the streak — noise proves nothing either way); a
// deterministic error counts toward the threshold and immediately
// re-opens a probing key.
func (b *Breaker) Record(key string, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		delete(b.entries, key)
		return
	}
	if IsTransient(err) {
		if st, ok := b.entries[key]; ok && st.probing {
			// The probe never tested the cell; let the next Allow retry
			// without waiting out a fresh cooldown.
			st.probing = false
			st.openedAt = b.now().Add(-b.cooldown)
		}
		return
	}
	st, ok := b.entries[key]
	if !ok {
		st = &breakerState{}
		b.entries[key] = st
	}
	st.fails++
	if st.probing || st.fails >= b.threshold {
		st.open = true
		st.probing = false
		st.openedAt = b.now()
	}
}

// Open reports whether key is currently tripped.
func (b *Breaker) Open(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.entries[key]
	return ok && st.open
}

// Len reports how many keys the breaker holds state for: every key whose
// last recorded outcome was a deterministic failure.
func (b *Breaker) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

// OpenCount reports how many keys are currently tripped.
func (b *Breaker) OpenCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, st := range b.entries {
		if st.open {
			n++
		}
	}
	return n
}
