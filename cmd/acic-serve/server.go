package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"acic/internal/api"
	"acic/internal/experiments"
	"acic/internal/experiments/engine"
)

// server answers the /v1/ query API from one warm Suite: the artifact
// store, prepared Programs, and the per-cell result memo live for the
// process, so the first client pays the cold prepare and every later
// query — cells or whole figures — is served from memory or the
// content-addressed store. Figures are memoized in their own
// singleflight group keyed by slug, so concurrent identical figure
// queries render once.
type server struct {
	suite   *experiments.Suite
	figures *engine.Group[string, string]
	breaker *engine.Breaker

	// faultBudget bounds the fault-recovery work (FaultStats.Recovered
	// delta) one request may consume before it is refused with
	// fault_budget_exhausted; 0 disables the budget. Recovery counters
	// are process-wide, so under concurrent load a request may be
	// charged for a neighbor's recovery — the budget is a degradation
	// tripwire, not precise accounting (DESIGN.md §15).
	faultBudget int64

	requests atomic.Int64
	started  time.Time
	gridKey  func() string
}

func newServer(suite *experiments.Suite, breaker *engine.Breaker, faultBudget int64) *server {
	s := &server{
		suite:       suite,
		breaker:     breaker,
		faultBudget: faultBudget,
		started:     time.Now(),
		gridKey:     sync.OnceValue(suite.GridKey),
	}
	// Figure renders run inline on the claiming request goroutine
	// (Group.Get); the group exists for its memo and singleflight, not
	// for scheduling, so it gets a minimal pool of its own rather than
	// competing for the suite's simulation slots.
	s.figures = engine.NewGroup(engine.NewPool(1), func(slug string) (string, error) {
		e, ok := experiments.LookupExperiment(slug)
		if !ok {
			return "", &api.Error{Code: api.CodeNotFound, Message: "no such experiment: " + slug}
		}
		return e.Run(suite)
	})
	s.figures.Name = "figure"
	return s
}

// handler builds the /v1/ mux. Method checks are by hand so a wrong
// verb gets the api envelope rather than ServeMux's plain-text 405.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	get := func(path string, h http.HandlerFunc) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			s.requests.Add(1)
			if r.Method != http.MethodGet && r.Method != http.MethodHead {
				api.WriteError(w, http.StatusMethodNotAllowed, &api.Error{
					Code: api.CodeMethodNotAllowed, Message: r.URL.Path + " requires GET"})
				return
			}
			h(w, r)
		})
	}
	get(api.Prefix+"healthz", s.handleHealthz)
	get(api.Prefix+"stats", s.handleStats)
	get(api.Prefix+"experiments", s.handleExperiments)
	get(api.Prefix+"figures/{name}", s.handleFigure)
	get(api.Prefix+"cells", s.handleCells)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, http.StatusNotFound, &api.Error{
			Code: api.CodeNotFound, Message: "no such endpoint: " + r.URL.Path + " (the API lives under " + api.Prefix + ")"})
	})
	return mux
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, api.Health{Status: "ok", Version: api.Version})
}

func (s *server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	reg := experiments.Registry()
	resp := api.ExperimentsResponse{Experiments: make([]api.ExperimentInfo, len(reg))}
	for i, e := range reg {
		resp.Experiments[i] = api.ExperimentInfo{Slug: e.Slug, Description: e.Desc}
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	computed, fromCache, workloads := s.suite.Stats()
	running, idle, queued := s.suite.Occupancy()
	gs := s.suite.GangStats()
	faultsJSON, _ := json.Marshal(s.suite.FaultStats())
	api.WriteJSON(w, http.StatusOK, api.Stats{
		Version:           api.Version,
		N:                 s.suite.N,
		Apps:              s.suite.Apps,
		SampleSets:        s.suite.SampleSets,
		GangSize:          s.suite.GangSize,
		Requests:          s.requests.Load(),
		CellsComputed:     int(computed),
		CellsFromCache:    int(fromCache),
		WorkloadsPrepared: int(workloads),
		Occupancy:         api.Occupancy{Running: running, Idle: idle, Queued: queued},
		Gangs: api.GangStats{Gangs: gs.Gangs, Cells: gs.Cells, Mixed: gs.Mixed,
			MaxWidth: int(gs.MaxWidth), Window: int(gs.Window)},
		Faults:        faultsJSON,
		BreakersOpen:  s.breaker.OpenCount(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	})
}

// etagFor derives a strong ETag from content-addressed key material:
// the keys hash everything the bytes depend on (keys.go), so equal tags
// imply byte-equal bodies and any HTTP cache layer can trust a 304.
func etagFor(material string) string {
	sum := sha256.Sum256([]byte(material))
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// handleFigure serves one registry experiment's rendered output,
// byte-identical to the figure body acic-bench prints for the same
// suite configuration.
func (s *server) handleFigure(w http.ResponseWriter, r *http.Request) {
	slug := r.PathValue("name")
	if _, ok := experiments.LookupExperiment(slug); !ok {
		api.WriteError(w, http.StatusNotFound, &api.Error{
			Code: api.CodeNotFound, Message: "no such experiment: " + slug + " (see " + api.Prefix + "experiments)"})
		return
	}
	// The tag covers the whole grid configuration plus the figure
	// identity — checked before rendering, so a warm client's re-query
	// costs no simulation at all.
	etag := etagFor(s.gridKey() + "|exp:" + slug)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	bkey := "exp:" + slug
	if !s.breaker.Allow(bkey) {
		api.WriteError(w, http.StatusServiceUnavailable, &api.Error{
			Code: api.CodeCircuitOpen, Message: "experiment " + slug + " is circuit-broken after repeated deterministic failures"})
		return
	}
	recoveredBefore := s.suite.FaultStats().Recovered()
	out, err := s.figures.Get(slug)
	s.breaker.Record(bkey, err)
	if err != nil {
		// Drop the memoized failure so a later request (or the breaker's
		// half-open probe) re-renders instead of replaying the error.
		s.figures.Forget(slug)
		status, apiErr := http.StatusInternalServerError, &api.Error{
			Code: api.CodeCellError, Message: slug + ": " + err.Error()}
		if engine.IsTransient(err) {
			status, apiErr.Code, apiErr.Transient = http.StatusServiceUnavailable, api.CodeTransient, true
			// The render spans many cells and any of them may hold the
			// memoized transient fault — sweep them all so the retry
			// recomputes instead of replaying.
			s.suite.ForgetTransient()
		}
		api.WriteError(w, status, apiErr)
		return
	}
	if !s.withinFaultBudget(w, recoveredBefore) {
		return
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if r.Method == http.MethodHead {
		return
	}
	w.Write([]byte(out))
}

// handleCells answers grid cell queries. app and scheme are required,
// comma-separated lists ("all" expands app to the suite's app list and
// scheme to every registered scheme); prefetcher defaults to fdp. The
// full cross product is computed as ONE Require batch, so same-app
// cells ride a single gang when gang execution is on — a client asking
// for twelve schemes of one app pays one Program traversal, exactly
// like the CLI grid.
func (s *server) handleCells(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	apps, schemes, pfs := q.Get("app"), q.Get("scheme"), q.Get("prefetcher")
	if apps == "" || schemes == "" {
		api.WriteError(w, http.StatusBadRequest, &api.Error{
			Code: api.CodeBadRequest, Message: "app and scheme query parameters are required (comma-separated; 'all' expands)"})
		return
	}
	appList := splitParam(apps)
	if apps == "all" {
		appList = s.suite.AppNames()
	}
	schemeList := splitParam(schemes)
	if schemes == "all" {
		schemeList = experiments.SchemeNames()
	}
	pfList := splitParam(pfs)
	if pfs == "" {
		pfList = []string{"fdp"}
	}
	var cells []experiments.Cell
	for _, pf := range pfList {
		cells = append(cells, experiments.CrossCells(appList, schemeList, pf)...)
	}

	// ETag over the sorted cell key set: the keys are content addresses,
	// so a match means the client's cached body is still exact — answer
	// 304 before any simulation.
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = s.suite.CellKey(c)
	}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	etag := etagFor(strings.Join(sorted, "\n"))
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	// Circuit-broken cells answer instantly without compute; the rest go
	// through one Require batch.
	runnable := make([]experiments.Cell, 0, len(cells))
	blocked := make(map[int]bool)
	for i, c := range cells {
		if s.breaker.Allow(keys[i]) {
			runnable = append(runnable, c)
		} else {
			blocked[i] = true
		}
	}
	recoveredBefore := s.suite.FaultStats().Recovered()
	s.suite.Require(runnable...) // per-cell outcomes read below

	outcomes := make([]api.CellOutcome, len(cells))
	for i, c := range cells {
		out := api.CellOutcome{Cell: c.API(), Key: keys[i]}
		if blocked[i] {
			out.Error = &api.Error{Code: api.CodeCircuitOpen, Cell: c.String(),
				Message: "cell is circuit-broken after repeated deterministic failures"}
			outcomes[i] = out
			continue
		}
		res, err := s.suite.Result(c.App, c.Scheme, c.Prefetcher)
		s.breaker.Record(keys[i], err)
		if err != nil {
			code := api.CodeCellError
			if engine.IsTransient(err) {
				code = api.CodeTransient
				// Forget transient failures so a retry recomputes instead
				// of replaying the memoized error.
				s.suite.Forget(c)
			}
			out.Error = &api.Error{Code: code, Message: err.Error(),
				Transient: code == api.CodeTransient, Cell: c.String()}
		} else {
			out.Result, _ = json.Marshal(res)
		}
		outcomes[i] = out
	}
	if !s.withinFaultBudget(w, recoveredBefore) {
		return
	}
	w.Header().Set("ETag", etag)
	api.WriteJSON(w, http.StatusOK, api.CellsResponse{ETag: etag, Cells: outcomes})
}

// withinFaultBudget enforces the per-request fault budget: when serving
// the request consumed more recovery work than allowed, the response is
// a transient 503 — the results themselves are still correct (recovery
// preserves byte-identity), but the infrastructure is degraded enough
// that the client should back off rather than keep hammering it.
func (s *server) withinFaultBudget(w http.ResponseWriter, recoveredBefore int64) bool {
	if s.faultBudget <= 0 {
		return true
	}
	spent := s.suite.FaultStats().Recovered() - recoveredBefore
	if spent <= s.faultBudget {
		return true
	}
	api.WriteError(w, http.StatusServiceUnavailable, &api.Error{
		Code: api.CodeFaultBudget, Transient: true,
		Message: fmt.Sprintf("request consumed %d fault recoveries (budget %d)", spent, s.faultBudget)})
	return false
}

func splitParam(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
