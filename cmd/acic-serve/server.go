package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"acic/internal/api"
	"acic/internal/experiments"
	"acic/internal/experiments/engine"
	"acic/internal/workload"
)

// server answers the /v1/ query API from one warm Suite: the artifact
// store, prepared Programs, and the per-cell result memo live for the
// process, so the first client pays the cold prepare and every later
// query — cells or whole figures — is served from memory or the
// content-addressed store. Figures are memoized in their own
// singleflight group keyed by slug, so concurrent identical figure
// queries render once. What a request's answer is derived from — a
// settled cell's key and encoded result, a figure's ETag — is derived
// once per process, so a warm or 304 answer does only per-request work.
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

	// figureETags maps every registry slug to its figure's ETag, derived
	// once from the suite's GridKey.
	figureETags func() map[string]string

	// settled holds each registry cell that has answered successfully:
	// its key and its JSON-encoded outcome, both fixed for the suite's
	// life. Only registry cells are stored, so it never holds more than
	// maxCells entries.
	settledMu sync.RWMutex
	settled   map[experiments.Cell]cellEntry
}

// cellEntry is one settled cell's answer: its key and its encoded
// api.CellOutcome.
type cellEntry struct {
	key     string
	outcome []byte
}

func newServer(suite *experiments.Suite, breaker *engine.Breaker, faultBudget int64) *server {
	s := &server{
		suite:       suite,
		breaker:     breaker,
		faultBudget: faultBudget,
		started:     time.Now(),
		settled:     make(map[experiments.Cell]cellEntry),
	}
	s.figureETags = sync.OnceValue(func() map[string]string {
		grid := suite.GridKey()
		slugs := experiments.ExperimentSlugs()
		tags := make(map[string]string, len(slugs))
		for _, slug := range slugs {
			// The tag covers the whole grid configuration plus the figure
			// identity.
			tags[slug] = etagFor(grid + "|exp:" + slug)
		}
		return tags
	})
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

// statsBody is the /v1/stats body: the suite's Config echo (n, apps,
// sample_sets) next to the engine counters.
type statsBody struct {
	experiments.Config
	api.Stats
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	computed, fromCache, workloads := s.suite.Stats()
	running, idle, queued := s.suite.Occupancy()
	faultsJSON, _ := json.Marshal(s.suite.FaultStats())
	api.WriteJSON(w, http.StatusOK, statsBody{s.suite.Config, api.Stats{
		Version:           api.Version,
		Requests:          s.requests.Load(),
		CellsComputed:     int(computed),
		CellsFromCache:    int(fromCache),
		WorkloadsPrepared: int(workloads),
		Occupancy:         api.Occupancy{Running: running, Idle: idle, Queued: queued},
		Faults:            faultsJSON,
		BreakersOpen:      s.breaker.OpenCount(),
		UptimeSeconds:     time.Since(s.started).Seconds(),
	}})
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
	etag, ok := s.figureETags()[slug]
	if !ok {
		api.WriteError(w, http.StatusNotFound, &api.Error{
			Code: api.CodeNotFound, Message: "no such experiment: " + slug + " (see " + api.Prefix + "experiments)"})
		return
	}
	// Checked before rendering, so a warm client's re-query costs no
	// simulation at all.
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

// handleCells answers grid cell queries (see cellsQuery). The full cross
// product is computed as ONE Require batch, so its cells run in parallel
// on the worker pool, exactly like the CLI grid.
func (s *server) handleCells(w http.ResponseWriter, r *http.Request) {
	cells, qerr := cellsQuery(r.URL.Query(), s.suite.AppNames())
	if qerr != nil {
		api.WriteError(w, http.StatusBadRequest, qerr)
		return
	}

	// A settled cell brings its key and encoded outcome along; only the
	// others derive their key here.
	entries := make([]cellEntry, len(cells))
	s.settledMu.RLock()
	for i, c := range cells {
		entries[i] = s.settled[c]
	}
	s.settledMu.RUnlock()
	sorted := make([]string, len(cells))
	for i, c := range cells {
		if entries[i].key == "" {
			entries[i].key = s.suite.CellKey(c)
		}
		sorted[i] = entries[i].key
	}

	// ETag over the sorted cell key set: the keys are content addresses,
	// so a match means the client's cached body is still exact — answer
	// 304 before any simulation.
	sort.Strings(sorted)
	etag := etagFor(strings.Join(sorted, "\n"))
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	// Settled cells need no engine work. Circuit-broken cells answer
	// instantly without compute; the rest go through one Require batch.
	var runnable []experiments.Cell
	blocked := make(map[int]bool)
	for i, c := range cells {
		switch {
		case entries[i].outcome != nil:
		case s.breaker.Allow(entries[i].key):
			runnable = append(runnable, c)
		default:
			blocked[i] = true
		}
	}
	recoveredBefore := s.suite.FaultStats().Recovered()
	if len(runnable) > 0 {
		s.suite.Require(runnable...) // per-cell outcomes read below
	}

	outcomes := make([][]byte, len(cells))
	for i, c := range cells {
		if outcomes[i] = entries[i].outcome; outcomes[i] != nil {
			continue
		}
		out, ok := s.cellOutcome(c, entries[i].key, blocked[i])
		outcomes[i], _ = json.Marshal(out)
		if ok {
			s.settle(c, cellEntry{key: entries[i].key, outcome: outcomes[i]})
		}
	}
	if !s.withinFaultBudget(w, recoveredBefore) {
		return
	}
	w.Header().Set("ETag", etag)
	writeCells(w, etag, outcomes)
}

// cellOutcome answers one cell that is not settled, after its Require
// batch; ok reports a result that encoded, which settles the cell.
func (s *server) cellOutcome(c experiments.Cell, key string, blocked bool) (out api.CellOutcome, ok bool) {
	out = api.CellOutcome{Cell: c.API(), Key: key}
	if blocked {
		out.Error = &api.Error{Code: api.CodeCircuitOpen, Cell: c.String(),
			Message: "cell is circuit-broken after repeated deterministic failures"}
		return out, false
	}
	res, err := s.suite.Result(c.App, c.Scheme, c.Prefetcher)
	// A cell naming no registered app, scheme or prefetcher fails the
	// same way every time at no cost, so it leaves no breaker entry: one
	// per invented name would grow the breaker without bound.
	if !experiments.IsUnknownName(err) {
		s.breaker.Record(key, err)
	}
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
		return out, false
	}
	out.Result, err = json.Marshal(res)
	return out, err == nil
}

// writeCells writes a 200 /v1/cells answer from its cells' encoded
// outcomes: the bytes api.WriteJSON writes for api.CellsResponse{ETag:
// etag, Cells: outcomes}, without re-encoding the outcomes (json would
// re-validate every embedded result on every request).
func writeCells(w http.ResponseWriter, etag string, outcomes [][]byte) {
	n := len(`{"etag":"","cells":[]}`) + 2*len(etag) + len(outcomes) + 1
	for _, o := range outcomes {
		n += len(o)
	}
	body := append(make([]byte, 0, n), `{"etag":`...)
	// An ETag is quoted hex (etagFor), which JSON and Go quote alike.
	body = append(strconv.AppendQuote(body, etag), `,"cells":[`...)
	for i, o := range outcomes {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, o...)
	}
	body = append(body, "]}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
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

// settle records a successful cell's answer. Only registry cells are
// kept, which bounds the map by maxCells whatever names clients send.
func (s *server) settle(c experiments.Cell, e cellEntry) {
	if !registryCells()[c] {
		return
	}
	s.settledMu.Lock()
	s.settled[c] = e
	s.settledMu.Unlock()
}

// registryCells is every cell the registries name: each registered
// workload under each registered scheme and each prefetcher platform.
// It is built once.
var registryCells = sync.OnceValue(func() map[experiments.Cell]bool {
	cells := make(map[experiments.Cell]bool)
	for _, p := range workload.All() {
		for _, scheme := range experiments.SchemeNames() {
			for _, pf := range experiments.Prefetchers() {
				cells[experiments.Cell{App: p.Name, Scheme: scheme, Prefetcher: pf}] = true
			}
		}
	}
	return cells
})

// maxCells bounds one /v1/cells query: every registered workload under
// every scheme and every prefetcher platform. A longer query can only
// repeat cells, so the bound comes from the registries, not a setting.
func maxCells() int { return len(registryCells()) }

// cellsQuery expands a /v1/cells query into its cells, prefetcher-major.
// app and scheme are required, comma-separated lists ("all" expands app
// to suiteApps and scheme to every registered scheme); prefetcher
// defaults to fdp. A query naming more than maxCells cells is refused
// before any cell is built, so a long URL cannot make the daemon allocate
// without bound. Names are not checked here: an unknown one yields cells
// that fail on their own.
func cellsQuery(q url.Values, suiteApps []string) ([]experiments.Cell, *api.Error) {
	apps, schemes, pfs := q.Get("app"), q.Get("scheme"), q.Get("prefetcher")
	if apps == "" || schemes == "" {
		return nil, &api.Error{Code: api.CodeBadRequest,
			Message: "app and scheme query parameters are required (comma-separated; 'all' expands)"}
	}
	appList := splitParam(apps)
	if apps == "all" {
		appList = suiteApps
	}
	schemeList := splitParam(schemes)
	if schemes == "all" {
		schemeList = experiments.SchemeNames()
	}
	pfList := splitParam(pfs)
	if pfs == "" {
		pfList = []string{"fdp"}
	}
	// The running product stays within limit between multiplies and a
	// factor is at most the query's length, so it cannot overflow.
	limit, n := maxCells(), 1
	for _, k := range []int{len(appList), len(schemeList), len(pfList)} {
		if n *= k; n > limit {
			return nil, &api.Error{Code: api.CodeBadRequest, Message: fmt.Sprintf(
				"query names %d apps x %d schemes x %d prefetchers, more than the %d cells the registries hold",
				len(appList), len(schemeList), len(pfList), limit)}
		}
	}
	cells := make([]experiments.Cell, 0, n)
	for _, pf := range pfList {
		cells = append(cells, experiments.CrossCells(appList, schemeList, pf)...)
	}
	return cells, nil
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
