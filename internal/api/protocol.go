package api

import "encoding/json"

// --- Coordinator/worker protocol (internal/distrib) ---

// Batch is one leased unit of remote work: same-app cells, so the worker
// prepares the workload once for all of them.
type Batch struct {
	ID    int64  `json:"id"`
	App   string `json:"app"`
	Cells []Cell `json:"cells"`
}

// ClaimRequest asks the coordinator for work, reporting the worker's
// instantaneous pool occupancy so steals are sized against real load.
type ClaimRequest struct {
	Worker  string `json:"worker"`
	Running int    `json:"running,omitempty"`
	Idle    int    `json:"idle,omitempty"`
	Queued  int    `json:"queued,omitempty"`
	Want    int    `json:"want,omitempty"`
}

// ClaimResponse carries zero or more leased batches. Done tells the
// worker the run is over; WaitMillis is the suggested poll backoff when
// no work was available.
type ClaimResponse struct {
	Batches    []Batch `json:"batches,omitempty"`
	Done       bool    `json:"done,omitempty"`
	WaitMillis int64   `json:"wait_millis,omitempty"`
}

// CellResult reports one cell's outcome within a completed batch. A nil
// Error means the result was published to the shared store; otherwise
// Error.Transient drives the coordinator's requeue-vs-fail decision.
type CellResult struct {
	Cell  Cell   `json:"cell"`
	Error *Error `json:"error,omitempty"`
}

// CompleteRequest reports a finished batch under the lease it was
// claimed with; stale BatchIDs (lease expired, batch requeued) are
// ignored by the coordinator.
type CompleteRequest struct {
	Worker  string       `json:"worker"`
	BatchID int64        `json:"batch_id"`
	Results []CellResult `json:"results"`
}

// --- acic-serve query API ---

// CellOutcome is one grid cell's answer in a CellsResponse: the
// content-addressed cache key the result lives under, and either the
// raw result object or a typed error.
type CellOutcome struct {
	Cell   Cell            `json:"cell"`
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  *Error          `json:"error,omitempty"`
}

// CellsResponse answers GET /v1/cells. ETag repeats the response ETag
// header so programmatic clients that strip headers keep it.
type CellsResponse struct {
	ETag  string        `json:"etag"`
	Cells []CellOutcome `json:"cells"`
}

// ExperimentInfo describes one registry entry at GET /v1/experiments.
type ExperimentInfo struct {
	Slug        string `json:"slug"`
	Description string `json:"description"`
}

// ExperimentsResponse answers GET /v1/experiments.
type ExperimentsResponse struct {
	Experiments []ExperimentInfo `json:"experiments"`
}

// Occupancy is a pool occupancy snapshot.
type Occupancy struct {
	Running int `json:"running"`
	Idle    int `json:"idle"`
	Queued  int `json:"queued"`
}

// Stats is the engine-counter part of the GET /v1/stats body; the serve
// daemon sends it next to its suite's experiments.Config (n, apps,
// sample_sets), which this import-free package cannot name. Faults is the
// experiments.FaultStats object, kept raw for the same reason.
type Stats struct {
	Version           string          `json:"version"`
	Requests          int64           `json:"requests"`
	CellsComputed     int             `json:"cells_computed"`
	CellsFromCache    int             `json:"cells_from_cache"`
	WorkloadsPrepared int             `json:"workloads_prepared"`
	Occupancy         Occupancy       `json:"occupancy"`
	Faults            json.RawMessage `json:"faults,omitempty"`
	BreakersOpen      int             `json:"breakers_open"`
	UptimeSeconds     float64         `json:"uptime_seconds"`
}
