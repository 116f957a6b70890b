package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls (spans inside the program are not
// recorded). Parent 0 marks a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
	Run    string `json:"run"`
	SelfNS int64  `json:"self_ns,omitempty"` // filled in by write
}

// tracer keeps spans in memory and writes them out once at exit. A
// disabled tracer still times (callers need the durations) but records
// nothing.
type tracer struct {
	on  bool
	run string

	mu    sync.Mutex
	spans []span
	last  int // last id handed out
}

func newTracer(on bool, run string) *tracer { return &tracer{on: on, run: run} }

// begin opens a span under parent and returns a function that closes it
// and reports its duration. The id is valid as a parent for child spans.
func (t *tracer) begin(name string, parent int) (id int, end func() time.Duration) {
	start := time.Now()
	if !t.on {
		return 0, func() time.Duration { return time.Since(start) }
	}
	t.mu.Lock()
	t.last++
	id = t.last
	t.mu.Unlock()
	return id, func() time.Duration {
		d := time.Since(start)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start.UnixNano(),
			End: start.UnixNano() + d.Nanoseconds(), Run: t.run})
		t.mu.Unlock()
		return d
	}
}

// adopt records spans from a child process, renumbered into this tracer
// with their roots reparented under parent.
func (t *tracer) adopt(spans []span, parent int) {
	if !t.on || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.last
	for _, s := range spans {
		t.last = max(t.last, base+s.ID)
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Run = t.run
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// recorded returns a copy of the closed spans.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes fills SelfNS: a span's duration minus the part of its
// interval that its children cover.
func selfTimes(spans []span) {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.SelfNS = s.End - s.Start - covered
	}
}

// write stores the spans, with self times, as one JSON document.
func (t *tracer) write(path string) error {
	spans := t.recorded()
	selfTimes(spans)
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	data, err := json.MarshalIndent(struct {
		Run   string `json:"run"`
		Spans []span `json:"spans"`
	}{t.run, spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
