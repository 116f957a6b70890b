// Package faults is a deterministic, spec-driven fault injector for
// exercising the engine's failure paths in tests and CI. A spec names
// fault classes and their rates, e.g.
//
//	io-err:p=0.01;corrupt-artifact:p=0.005;panic-cell:every=97;seed=7
//
// and is installed process-wide (from -fault-spec or ACIC_FAULT_SPEC).
// Production code calls the cheap hook functions (FailIO, Corrupt,
// PanicPoint) at its fault sites; with no injector installed each hook is
// a single atomic load and injects nothing, so the hooks can sit on warm
// paths — though never on the per-access simulation hot path, which stays
// hook-free (DESIGN.md §13).
//
// Decisions are deterministic under any scheduling. Every hook names its
// site and the key of the work it guards (a store entry, a cell, a stage
// and app, a stream window), and the injector counts how often each
// (class, site, key) has been drawn: that count is the attempt. A draw
// fires iff splitmix64(seed, class, site, key, attempt) maps below the
// class's probability; an every=N rule fires on one attempt in N for
// each key, at a key-derived phase. The decision is thus a pure function
// of (seed, class, site, key, attempt), never of which goroutine reached
// a boundary first, so concurrent runs inject the same faults at the same
// places as serial ones, and every=N with N >= 2 lets a retried key
// through within N attempts.
package faults

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Class identifies one injectable fault kind.
type Class int

const (
	// IOErr makes a DiskCache read or write fail as if the underlying
	// storage errored: loads become misses, stores are skipped. Always
	// survivable — the cache is best-effort by contract.
	IOErr Class = iota
	// CorruptArtifact flips one bit in an encoded value before it is
	// persisted, simulating a torn or bit-rotted write. The corruption is
	// caught by the container/entry checksums on the next load, which
	// quarantines the file and regenerates.
	CorruptArtifact
	// PanicCell panics at a worker task boundary (group compute, gang
	// start, stream window) with an Injected value, exercising panic
	// isolation, retry, and the degradation ladder.
	PanicCell
	// NetErr makes an HTTP round trip fail as if the network dropped it:
	// remote store loads become misses, stores are skipped, and the
	// distributed coordinator/worker protocol sees a transport error its
	// retry ladder must absorb. Always survivable — remote callers treat
	// it exactly like a refused connection.
	NetErr

	numClasses
)

var classNames = [numClasses]string{"io-err", "corrupt-artifact", "panic-cell", "net-err"}

func (c Class) String() string {
	if c < 0 || c >= numClasses {
		return fmt.Sprintf("faults.Class(%d)", int(c))
	}
	return classNames[c]
}

// rule is one class's firing schedule: probabilistic (p) or periodic
// (every). Exactly one is non-zero in a parsed rule.
type rule struct {
	p     float64
	every int64
}

// Injector holds a parsed spec, the per-(class, site, key) attempt
// counters, and per-class fire counters. All methods are safe for
// concurrent use.
type Injector struct {
	spec  string
	seed  uint64
	rules [numClasses]rule
	fired [numClasses]atomic.Int64

	mu       sync.Mutex
	attempts map[uint64]int64 // draws so far, by hash of (seed, class, site, key)
}

// Parse compiles a spec string. Grammar: semicolon-separated fields, each
// either "seed=N" or "class:param=value[,param=value]" where class is one
// of io-err, corrupt-artifact, panic-cell and param is p (probability in
// [0,1]) or every (fire on one attempt in N per key, N >= 1). An empty spec is
// valid and injects nothing.
func Parse(spec string) (*Injector, error) {
	in := &Injector{spec: spec, seed: 1, attempts: make(map[uint64]int64)}
	for _, field := range strings.Split(spec, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		if s, ok := strings.CutPrefix(field, "seed="); ok {
			n, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", s, err)
			}
			in.seed = n
			continue
		}
		name, params, ok := strings.Cut(field, ":")
		if !ok {
			return nil, fmt.Errorf("faults: field %q is not class:param=value or seed=N", field)
		}
		class := Class(-1)
		for c, cn := range classNames {
			if cn == name {
				class = Class(c)
			}
		}
		if class < 0 {
			return nil, fmt.Errorf("faults: unknown class %q (want io-err, corrupt-artifact, panic-cell, or net-err)", name)
		}
		var r rule
		for _, kv := range strings.Split(params, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("faults: %s: parameter %q is not key=value", name, kv)
			}
			switch k {
			case "p":
				p, err := strconv.ParseFloat(v, 64)
				if err != nil || p < 0 || p > 1 {
					return nil, fmt.Errorf("faults: %s: p=%q is not a probability in [0,1]", name, v)
				}
				r.p = p
			case "every":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("faults: %s: every=%q is not a positive integer", name, v)
				}
				r.every = n
			default:
				return nil, fmt.Errorf("faults: %s: unknown parameter %q (want p or every)", name, k)
			}
		}
		if r.p != 0 && r.every != 0 {
			return nil, fmt.Errorf("faults: %s: p and every are mutually exclusive", name)
		}
		if r.p == 0 && r.every == 0 {
			return nil, fmt.Errorf("faults: %s: rule needs p= or every=", name)
		}
		in.rules[class] = r
	}
	return in, nil
}

// Validate reports whether spec parses, without installing it.
func Validate(spec string) error {
	_, err := Parse(spec)
	return err
}

// Mix64 is the splitmix64 finalizer: a cheap, high-quality 64-bit mixing
// function. Exported for callers that need deterministic pseudo-random
// decisions without math/rand's locking (backoff jitter, bit selection).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString is 64-bit FNV-1a.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// fire draws once for class c at (site, key). It returns whether the fault
// fires, the attempt index of this draw for (c, site, key), and the draw's
// hash (for secondary decisions such as which bit to flip).
func (in *Injector) fire(c Class, site, key string) (hit bool, attempt int64, h uint64) {
	r := in.rules[c]
	if r.p == 0 && r.every == 0 {
		return false, 0, 0
	}
	id := Mix64(Mix64(in.seed^uint64(c)<<32^hashString(site)) ^ hashString(key))
	in.mu.Lock()
	attempt = in.attempts[id]
	in.attempts[id] = attempt + 1
	in.mu.Unlock()
	h = Mix64(id ^ uint64(attempt))
	if r.every > 0 {
		n := uint64(r.every)
		hit = (id%n+uint64(attempt))%n == n-1
	} else {
		hit = float64(h>>11)/(1<<53) < r.p
	}
	if hit {
		in.fired[c].Add(1)
	}
	return hit, attempt, h
}

// Stats is a snapshot of injection activity.
type Stats struct {
	Spec        string `json:"spec,omitempty"`
	IOErrs      int64  `json:"io_errs"`
	Corruptions int64  `json:"corruptions"`
	Panics      int64  `json:"panics"`
	NetErrs     int64  `json:"net_errs"`
}

// Total is the number of faults fired across all hooks.
func (s Stats) Total() int64 {
	return s.IOErrs + s.Corruptions + s.Panics + s.NetErrs
}

// Injected is the panic value raised by PanicPoint. Recovery code uses
// IsInjected to classify such panics as transient (retryable): the panic
// was environmental, not a simulator bug, so re-running the work is both
// safe and expected to succeed.
type Injected struct {
	Site    string // hook site, e.g. "compute", "gang", "stream-window"
	Key     string // the work the site guards
	Attempt int64  // attempt index of (site, key) that fired
}

func (i *Injected) String() string {
	return fmt.Sprintf("injected fault at %s %s (attempt %d)", i.Site, i.Key, i.Attempt)
}

// IsInjected reports whether a recovered panic value came from PanicPoint.
func IsInjected(r any) bool {
	_, ok := r.(*Injected)
	return ok
}

// active is the process-wide injector; nil means no injection.
var active atomic.Pointer[Injector]

// Install parses and installs spec process-wide, replacing any previous
// injector (and its counters). An empty spec uninstalls.
func Install(spec string) error {
	if spec == "" {
		active.Store(nil)
		return nil
	}
	in, err := Parse(spec)
	if err != nil {
		return err
	}
	active.Store(in)
	return nil
}

// Snapshot returns the installed injector's activity counters, or a zero
// Stats when none is installed.
func Snapshot() Stats {
	in := active.Load()
	if in == nil {
		return Stats{}
	}
	return Stats{
		Spec:        in.spec,
		IOErrs:      in.fired[IOErr].Load(),
		Corruptions: in.fired[CorruptArtifact].Load(),
		Panics:      in.fired[PanicCell].Load(),
		NetErrs:     in.fired[NetErr].Load(),
	}
}

// FailIO reports whether an injected IO error fires for the store
// operation site on entry key. Callers treat a true result exactly like a
// real storage error: loads miss, stores skip.
func FailIO(site, key string) bool {
	in := active.Load()
	if in == nil {
		return false
	}
	hit, _, _ := in.fire(IOErr, site, key)
	return hit
}

// FailNet reports whether an injected network error fires for the request
// site on key. Remote-store and coordinator clients treat a true result
// exactly like a transport failure: the request is never issued, loads
// miss, stores skip, and protocol calls surface a transient error for the
// retry ladder.
func FailNet(site, key string) bool {
	in := active.Load()
	if in == nil {
		return false
	}
	hit, _, _ := in.fire(NetErr, site, key)
	return hit
}

// Corrupt flips one deterministically-chosen bit of data, the encoded
// entry key, in place when the corrupt-artifact rule fires, and returns
// data either way. The bit is drawn from the second half of the buffer so
// that for checksummed container formats it always lands in a CRC-covered
// region (headers and names are a small prefix); JSON cache entries are
// whole-file checksummed, so any position is caught there.
func Corrupt(key string, data []byte) []byte {
	in := active.Load()
	if in == nil || len(data) == 0 {
		return data
	}
	hit, _, h := in.fire(CorruptArtifact, "store", key)
	if !hit {
		return data
	}
	bits := uint64(len(data)) * 8
	lo := bits / 2
	bit := lo + Mix64(h^0xc0ffee)%(bits-lo)
	data[bit/8] ^= 1 << (bit % 8)
	return data
}

// PanicPoint panics with an *Injected value when the panic-cell rule
// fires at site for the work named key. Sites are placed at task
// boundaries (before any state is mutated) so that recovery can always
// retry cleanly.
func PanicPoint(site, key string) {
	in := active.Load()
	if in == nil {
		return
	}
	if hit, attempt, _ := in.fire(PanicCell, site, key); hit {
		panic(&Injected{Site: site, Key: key, Attempt: attempt})
	}
}
