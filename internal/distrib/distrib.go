// Package distrib shards a Suite's cell grid across processes: a
// work-stealing coordinator enumerates the deduplicated plan (it is the
// Suite's Remote) and hands same-app batches to stateless workers over a
// thin HTTP/JSON protocol, while artifacts and results flow through one
// shared store (the engine's http:// DiskCache backend), so the
// coordinator's render path reads bytes identical to a single-process
// run at any worker count (DESIGN.md §14).
//
// The wire types live in internal/api — the one versioned contract this
// protocol shares with acic-serve and the store handler — and are
// aliased here so coordinator and worker code reads naturally; only
// Config, which embeds experiments.Config, is defined here. The
// protocol is three endpoints. GET /api/config tells a fresh worker
// everything it needs to build its Suite — the coordinator suite's
// Config (trace length, apps, sampling) and the store URL — which is
// what makes workers stateless: point acic-worker at a coordinator and
// it configures itself. POST
// /api/claim is the steal: the worker sends its pool occupancy snapshot
// (running/idle/queued) and how many batches it wants, the coordinator
// grants up to that many. POST /api/complete reports per-cell outcomes
// as api.CellResults, whose *api.Error carries PR 8's split as a typed
// field: transient cells are requeued (bounded), deterministic failures
// are final. Errors on every endpoint are api.Envelope.
package distrib

import (
	"acic/internal/api"
	"acic/internal/experiments"
)

// Config is the GET /api/config body: the Config of the coordinator's
// own Suite, whose result-determining fields travel as n, apps and
// sample_sets (the per-process ones are json:"-"), plus the shared store
// every worker points its cache and artifact store at. The coordinator
// builds it from the suite it serves, never from a second copy, so a
// worker's Suite cannot drift from the coordinator's.
type Config struct {
	experiments.Config
	StoreURL string `json:"store_url,omitempty"`
}

// Aliases into the shared wire contract. Cells travel as api.Cell on
// the wire; the coordinator converts to and from experiments.Cell at
// the protocol boundary (Claim/Complete), nowhere else.
type (
	// Batch is one steal unit: same-app cells a worker runs through one
	// Require, preparing the workload once. IDs are fresh per lease — a requeued batch gets a new one,
	// fencing off late completions from its previous owner.
	Batch = api.Batch
	// ClaimRequest is a worker's steal: its occupancy snapshot plus how
	// many batches it can absorb. Want 0 is a pure heartbeat.
	ClaimRequest = api.ClaimRequest
	// ClaimResponse grants batches, reports Done, or suggests a poll
	// delay.
	ClaimResponse = api.ClaimResponse
	// CellResult is one cell's outcome: nil Error means computed and
	// published to the shared store; Error.Transient requeues, anything
	// else is final.
	CellResult = api.CellResult
	// CompleteRequest reports a finished batch. Cells of the batch
	// missing from Results are treated as transient failures (a worker
	// that half-reported is a worker that half-died).
	CompleteRequest = api.CompleteRequest
)
