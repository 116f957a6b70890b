package engine

import (
	"runtime"
	"sync"
	"testing"
)

// holdTasks runs Each(n) in the background with every task blocking until
// hold closes, and returns once all n tasks hold their slots. The returned
// channel yields Each's error after hold closes.
func holdTasks(p *Pool, n int, hold <-chan struct{}) <-chan error {
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- p.Each(n, func(int) error {
			started <- struct{}{}
			<-hold
			return nil
		})
	}()
	for i := 0; i < n; i++ {
		<-started
	}
	return done
}

// TestPoolOccupancy pins the Running/Idle counters batch packers plan
// against: an empty pool is fully idle, every held slot moves one unit
// from Idle to Running, and drained tasks return it.
func TestPoolOccupancy(t *testing.T) {
	p := NewPool(4)
	if p.Width() != 4 || p.Running() != 0 || p.Idle() != 4 {
		t.Fatalf("fresh pool: width %d running %d idle %d", p.Width(), p.Running(), p.Idle())
	}

	hold := make(chan struct{})
	done := holdTasks(p, 3, hold)
	if p.Running() != 3 || p.Idle() != 1 {
		t.Errorf("3 held tasks: running %d idle %d, want 3 and 1", p.Running(), p.Idle())
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p.Running() != 0 || p.Idle() != 4 {
		t.Errorf("drained pool: running %d idle %d, want 0 and 4", p.Running(), p.Idle())
	}
}

// TestPoolQueued pins the third leg of the occupancy snapshot: submitters
// blocked waiting for a slot count as queued, and move to running the
// moment a slot frees. The distributed worker's steal sizing subtracts
// Queued from Idle, so a stuck-at-zero or leaking counter would make
// workers hoard or starve.
func TestPoolQueued(t *testing.T) {
	p := NewPool(2)
	if p.Queued() != 0 {
		t.Fatalf("fresh pool: queued %d", p.Queued())
	}

	hold := make(chan struct{})
	done := holdTasks(p, 2, hold)

	// The pool is full; three more submitters must block in acquire and
	// show up as queued.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Each(1, func(int) error {
				<-hold
				return nil
			})
		}()
	}
	for p.Queued() != 3 {
		runtime.Gosched()
	}
	if r := p.Running(); r != 2 {
		t.Errorf("Running() = %d with a full pool, want 2", r)
	}
	close(hold)
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p.Queued() != 0 || p.Running() != 0 {
		t.Errorf("drained pool: queued %d running %d, want 0 and 0", p.Queued(), p.Running())
	}
}

// TestPoolEachCountsOccupancy: every Each task goes through the
// acquire/release pair, so occupancy observed from inside a task is at
// least 1 and never exceeds the width.
func TestPoolEachCountsOccupancy(t *testing.T) {
	p := NewPool(2)
	if err := p.Each(8, func(i int) error {
		if r := p.Running(); r < 1 || r > 2 {
			t.Errorf("Running() = %d inside a width-2 pool task", r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p.Running() != 0 {
		t.Errorf("Running() = %d after Each returned", p.Running())
	}
}
