package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"acic/internal/faults"
)

// CellError is the typed failure of one unit of engine work — a group
// compute or a pool task. It carries enough attribution to blame a
// specific cell in logs and reports, and, when the failure was a
// recovered panic, a short stack digest that groups identical crashes
// across cells without dumping full stacks into every error string.
type CellError struct {
	Key         string // cell attribution, e.g. "media-streaming/acic/fdp"
	Panic       any    // recovered panic value; nil for plain errors
	StackDigest string // first 12 hex chars of SHA-256 over the panic stack
	Stack       []byte // full stack at recovery, for -v style diagnostics
	Err         error  // underlying error for plain (non-panic) failures

	transient bool
}

func (e *CellError) Error() string {
	if e.Panic != nil {
		return fmt.Sprintf("engine: cell %s: panic: %v [stack %s]", e.Key, e.Panic, e.StackDigest)
	}
	return fmt.Sprintf("engine: cell %s: %v", e.Key, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// Transient reports whether the failure is classified retryable: injected
// faults and errors wrapped by MarkTransient are; genuine panics (a
// deterministic simulator bug would fail identically on every attempt)
// and ordinary errors are not.
func (e *CellError) Transient() bool { return e.transient }

// recoveredError converts a recovered panic into a *CellError. Injected
// panics (from faults.PanicPoint) are environmental by construction and
// marked transient; anything else is treated as a deterministic bug and
// fails without retry.
func recoveredError(key string, r any, stack []byte) *CellError {
	sum := sha256.Sum256(stack)
	return &CellError{
		Key:         key,
		Panic:       r,
		StackDigest: hex.EncodeToString(sum[:6]),
		Stack:       stack,
		transient:   faults.IsInjected(r),
	}
}

// transientErr marks a wrapped error as retryable.
type transientErr struct{ error }

func (t transientErr) Transient() bool { return true }
func (t transientErr) Unwrap() error   { return t.error }

// MarkTransient wraps err so IsTransient reports true for it: the caller
// asserts the failure is environmental (storage hiccup, injected fault)
// and a retry has a real chance of succeeding. A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return transientErr{err}
}

// IsTransient reports whether err (or anything it wraps) is classified
// retryable via a Transient() bool method returning true.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// Guard runs fn with panic isolation: a panic becomes a *CellError
// attributed to key instead of unwinding the worker goroutine and killing
// the process.
func Guard[V any](key string, fn func() (V, error)) (v V, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoveredError(key, r, debug.Stack())
		}
	}()
	return fn()
}

// RetryPolicy bounds how failed work is re-attempted. The zero value
// disables retries (one attempt, still panic-guarded). Only transient
// failures are retried; see IsTransient.
type RetryPolicy struct {
	// Attempts is the total number of tries including the first;
	// values <= 1 mean no retries.
	Attempts int
	// Base is the first backoff delay (default 1ms).
	Base time.Duration
	// Cap bounds every backoff delay (default 100ms).
	Cap time.Duration
	// Sleep replaces time.Sleep in tests; nil uses time.Sleep.
	Sleep func(time.Duration)
}

// DefaultRetryAttempts is the attempt bound used by DefaultRetry when
// ACIC_RETRY_ATTEMPTS is unset.
const DefaultRetryAttempts = 3

// DefaultRetry returns the standard policy: ACIC_RETRY_ATTEMPTS attempts
// (default 3) with 1ms..100ms decorrelated-jitter backoff.
func DefaultRetry() RetryPolicy {
	attempts := DefaultRetryAttempts
	if s := os.Getenv("ACIC_RETRY_ATTEMPTS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			attempts = n
		}
	}
	return RetryPolicy{Attempts: attempts}
}

// jitterSeq feeds the backoff jitter PRNG. A process-wide atomic counter
// hashed through splitmix64 gives well-spread delays without math/rand's
// lock; the sequence being process-global (not per-retry-loop) is fine —
// jitter exists to decorrelate concurrent retries, not to be replayable.
var jitterSeq atomic.Uint64

// backoff returns the next decorrelated-jitter delay: uniform in
// [base, min(cap, 3*prev)].
func (p RetryPolicy) backoff(base, cap, prev time.Duration) time.Duration {
	hi := 3 * prev
	if hi > cap {
		hi = cap
	}
	if hi <= base {
		return base
	}
	span := uint64(hi - base)
	return base + time.Duration(faults.Mix64(jitterSeq.Add(1))%span)
}

// Retry runs fn under Guard up to p.Attempts times, sleeping a
// decorrelated-jitter backoff between attempts, and returns the last
// value/error plus how many retries were spent. Non-transient failures —
// ordinary errors and genuine (non-injected) panics — return immediately:
// a deterministic failure re-run N times is N times the cost for the same
// answer. Callers must ensure fn is safe to re-enter (the engine's fault
// sites fire before any state is mutated, so injected failures always
// leave fn re-runnable).
func Retry[V any](p RetryPolicy, key string, fn func() (V, error)) (V, error, int) {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	base := p.Base
	if base <= 0 {
		base = time.Millisecond
	}
	cap := p.Cap
	if cap <= 0 {
		cap = 100 * time.Millisecond
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	prev := base
	retries := 0
	for attempt := 1; ; attempt++ {
		v, err := Guard(key, fn)
		if err == nil || attempt >= attempts || !IsTransient(err) {
			return v, err, retries
		}
		retries++
		d := p.backoff(base, cap, prev)
		sleep(d)
		prev = d
	}
}
