package experiments

import (
	"acic/internal/cpu"
	"acic/internal/experiments/engine"
)

// Remote is the seam between a Suite and a distributed executor (the
// coordinator in acic-coord). When set, Require routes each batch's
// not-yet-planned cells here instead of the local worker pool: Submit
// receives one same-app chunk at a time — the steal unit, so a worker
// prepares the workload once for the whole chunk — and must arrange for
// done to be called exactly once per cell, from any goroutine, without
// blocking inside Submit itself.
//
// The error passed to done decides the cell's fate: nil means the cell's
// result was published to the shared store (the suite loads it from
// there); a transient error (worker death, injected fault, requeue budget
// exhausted) falls back to computing the cell locally; a deterministic
// error fails just the figures needing the cell.
type Remote interface {
	Submit(app string, cells []Cell, done func(c Cell, err error))
}

// remoteChunk bounds the steal unit: same-app groups are split into
// chunks of at most this many cells, so a wide grid still spreads across
// workers.
const remoteChunk = 10

// submitRemote claims the batch's not-yet-planned cells and hands them to
// the Remote in same-app chunks, in first-appearance order. Cells the
// shared store already holds are completed immediately — the coordinator
// never ships work whose result exists. Cells claimed here are completed
// by remoteDone on every path; the results.Require that follows only
// waits on them.
func (s *Suite) submitRemote(cells []Cell) {
	claimed := make(map[string][]Cell)
	var order []string
	for _, c := range cells {
		if !s.results.TryClaim(c) {
			continue // computed, in flight, or a duplicate within the batch
		}
		if s.results.TryCache(c) {
			continue // warm store: completed without shipping
		}
		if _, ok := claimed[c.App]; !ok {
			order = append(order, c.App)
		}
		claimed[c.App] = append(claimed[c.App], c)
	}
	for _, app := range order {
		group := claimed[app]
		parts := (len(group) + remoteChunk - 1) / remoteChunk
		for _, unit := range splitBalanced(group, parts) {
			s.Remote.Submit(app, unit, s.remoteDone)
		}
	}
}

// splitBalanced cuts batch into parts contiguous chunks whose sizes differ
// by at most one, preserving order.
func splitBalanced(batch []Cell, parts int) [][]Cell {
	if parts < 1 {
		parts = 1
	}
	if parts > len(batch) {
		parts = len(batch)
	}
	out := make([][]Cell, 0, parts)
	for start, i := 0, 0; i < parts; i++ {
		end := start + (len(batch)-start)/(parts-i)
		out = append(out, batch[start:end])
		start = end
	}
	return out
}

// remoteDone completes one remotely executed cell. Success means the
// worker published the result to the shared store; loading it through
// TryCache is what makes distributed output byte-identical — the bytes
// the renderer sees round-tripped the same content-addressed entry a
// warm local run would read. A success whose entry cannot be loaded
// (store lost the write, injected net-err on our side) and any transient
// failure compute the cell locally through the group's guarded, retried
// path, which keeps the run live even with zero healthy workers; a
// deterministic failure is recorded as the cell's typed error without
// wasting a local rerun.
func (s *Suite) remoteDone(c Cell, err error) {
	switch {
	case err == nil:
		if s.results.TryCache(c) {
			return
		}
		s.results.Compute(c)
	case engine.IsTransient(err):
		s.results.Compute(c)
	default:
		s.results.Fulfill(c, cpu.Result{}, err)
	}
}

// Forget drops a completed cell from the suite's memo so the next demand
// recomputes it (see engine.Group.Forget), along with any transiently
// failed prepare stage for the cell's app — the transient failure may
// live in the pipeline memo rather than the cell compute, and a retry
// that re-runs only the cell would replay the poisoned stage forever.
// The distributed worker and acic-serve call it after a transient cell
// failure so the requeue/re-query re-runs the simulation instead of
// replaying the memoized error.
func (s *Suite) Forget(c Cell) bool {
	s.init()
	dropped := s.results.Forget(c)
	return s.pipeline.ForgetTransient(c.App) || dropped
}

// ForgetTransient sweeps every transiently failed memo — result cells
// and prepare stages alike — so the next demand recomputes them.
// acic-serve calls it when a figure render fails transiently: the
// render spans many cells and any of them may hold the memoized fault.
func (s *Suite) ForgetTransient() int {
	s.init()
	return s.results.ForgetAllTransient() + s.pipeline.ForgetAllTransient()
}

// Occupancy reports the suite pool's instantaneous occupancy snapshot —
// running tasks, free slots, and submitters blocked waiting for a slot.
// The distributed worker sends it with every claim so the coordinator
// sizes steals against real load instead of guessing.
func (s *Suite) Occupancy() (running, idle, queued int) {
	s.init()
	return s.pool.Running(), s.pool.Idle(), s.pool.Queued()
}
