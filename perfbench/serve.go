package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"acic/internal/api"
	"acic/internal/experiments"
)

// serveFigures are the figures serve-replay fetches after its cold cell
// batches; every cell they need lies in the batches' grid.
var serveFigures = []string{"table3", "fig10", "fig11"}

// serveClients is the closed loop's width: each client sends its next
// request only after the previous answer arrived.
const serveClients = 2

// serveGrid is the Fig 10 grid under FDP: every datacenter app crossed
// with the baseline and the 12 Fig 10 schemes.
func serveGrid(n int) []experiments.Cell {
	return experiments.CrossCells(experiments.NewSuite(n).AppNames(),
		append([]string{experiments.Baseline}, experiments.Fig10Schemes...), "fdp")
}

// script is one seed's request sequence.
type script struct {
	cold    []string // app order of the cold per-app batches
	figures []string // figure order
	warm    []int    // grid index per warm query; starts with a permutation of the grid
	reval   []int    // grid index per revalidation
}

func newScript(seed int64, grid []experiments.Cell, requests int) script {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e7e))
	var sc script
	seen := map[string]bool{}
	for _, c := range grid {
		if !seen[c.App] {
			seen[c.App] = true
			sc.cold = append(sc.cold, c.App)
		}
	}
	rng.Shuffle(len(sc.cold), func(i, j int) { sc.cold[i], sc.cold[j] = sc.cold[j], sc.cold[i] })
	sc.figures = append([]string(nil), serveFigures...)
	rng.Shuffle(len(sc.figures), func(i, j int) { sc.figures[i], sc.figures[j] = sc.figures[j], sc.figures[i] })
	sc.warm = rng.Perm(len(grid))
	for len(sc.warm) < max(requests, len(grid)) {
		sc.warm = append(sc.warm, rng.IntN(len(grid)))
	}
	sc.reval = make([]int, requests)
	for i := range sc.reval {
		sc.reval[i] = rng.IntN(len(grid))
	}
	return sc
}

// daemon is one acic-serve process.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	drained chan struct{} // closed once stderr is fully read
	mu      sync.Mutex
	log     []string // stderr lines
}

// startDaemon starts acic-serve on an ephemeral loopback port over store
// and waits until /v1/healthz answers 200. It inherits no ACIC_* variable
// (see clearACICEnv), so it keeps no result cache between repetitions and
// injects no faults.
func (b *bench) startDaemon(store string, hc *http.Client) (*daemon, error) {
	if b.cfg.serveBin == "" {
		return nil, fmt.Errorf("serve-replay needs -serve-bin")
	}
	cmd := exec.Command(b.cfg.serveBin, "-listen", "127.0.0.1:0", "-artifact-dir", store,
		"-n", strconv.Itoa(b.cfg.n), "-workers", strconv.Itoa(b.cfg.workers))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", b.cfg.workers))
	cmd.SysProcAttr = childAttr()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log = append(d.log, line)
			d.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "serving http://"); ok {
				if host, _, ok := strings.Cut(rest, api.Prefix); ok {
					select {
					case addr <- host:
					default:
					}
				}
			}
		}
	}()
	select {
	case host := <-addr:
		d.base = "http://" + host
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("acic-serve exited at start-up: %s", d.stderr())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("acic-serve did not report its address")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := hc.Get(d.base + api.Prefix + "healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("acic-serve healthz never answered 200")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) stderr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.log, "\n")
}

// stop sends SIGTERM (the daemon drains and exits), kills it if it has not
// exited within 20s, and waits for it.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.drained
	}
	d.cmd.Wait() // exit status after SIGTERM carries no information
}

// replay is one run of the script against one daemon.
type replay struct {
	wall      time.Duration
	peakKB    int64
	computed  int // cells the daemon simulated during the script
	requested int // cells named by 200 responses to /v1/cells

	coldBodies map[string][]byte // app -> batch response
	figBodies  map[string][]byte // slug -> figure body
	cellBodies [][]byte          // grid index -> first warm response
	etags      []string          // grid index -> ETag of that response

	coldMS, figMS, warmMS, revalMS []float64
	warmBytes                      int64
	notModified                    int
}

// httpClient returns a client holding at most serveClients keep-alive
// connections to the daemon.
func httpClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients,
			DisableCompression: true},
	}
}

// get issues one GET and reads the whole body.
func get(hc *http.Client, u, etag string) (status int, body []byte, tag string, lat time.Duration, err error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return 0, nil, "", 0, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, "", 0, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, resp.Header.Get("ETag"), time.Since(start), err
}

// fanOut runs f(i) for i in [0, n) on serveClients closed-loop clients.
func fanOut(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

func cellsURL(base string, apps, schemes []string) string {
	return base + api.Prefix + "cells?" + url.Values{
		"app": {strings.Join(apps, ",")}, "scheme": {strings.Join(schemes, ",")}, "prefetcher": {"fdp"},
	}.Encode()
}

func daemonComputed(hc *http.Client, base string) (int, error) {
	status, body, _, _, err := get(hc, base+api.Prefix+"stats", "")
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("/v1/stats: status %d", status)
	}
	var st api.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, err
	}
	return st.CellsComputed, nil
}

// runScript plays the three phases of sc against the daemon: cold per-app
// batches and figures, warm single-cell queries, then revalidations.
// Every request is one attempted operation.
func (b *bench) runScript(d *daemon, hc *http.Client, grid []experiments.Cell, sc script, parent int) (*replay, error) {
	schemes := append([]string{experiments.Baseline}, experiments.Fig10Schemes...)
	rp := &replay{
		coldBodies: map[string][]byte{}, figBodies: map[string][]byte{},
		cellBodies: make([][]byte, len(grid)), etags: make([]string, len(grid)),
		coldMS: make([]float64, len(sc.cold)), figMS: make([]float64, len(sc.figures)),
		warmMS: make([]float64, len(sc.warm)), revalMS: make([]float64, len(sc.reval)),
	}
	before, err := daemonComputed(hc, d.base)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex // guards rp's maps and the result's accounting
	fail := func(i int, what string, status int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			b.res.op(fmt.Errorf("serve-replay: %s %d: %w", what, i, err))
		} else {
			b.res.op(fmt.Errorf("serve-replay: %s %d: status %d", what, i, status))
		}
	}
	ok := func() {
		mu.Lock()
		b.res.op(nil)
		mu.Unlock()
	}

	start := time.Now()
	_, endPhase := b.tr.begin("serve.cold", parent)
	fanOut(len(sc.cold), func(i int) {
		app := sc.cold[i]
		status, body, _, lat, err := get(hc, cellsURL(d.base, []string{app}, schemes), "")
		rp.coldMS[i] = float64(lat.Nanoseconds()) / 1e6
		if err != nil || status != http.StatusOK {
			fail(i, "cold batch", status, err)
			return
		}
		ok()
		mu.Lock()
		rp.coldBodies[app] = body
		rp.requested += len(schemes)
		mu.Unlock()
	})
	endPhase()
	_, endPhase = b.tr.begin("serve.figures", parent)
	fanOut(len(sc.figures), func(i int) {
		slug := sc.figures[i]
		status, body, _, lat, err := get(hc, d.base+api.Prefix+"figures/"+slug, "")
		rp.figMS[i] = float64(lat.Nanoseconds()) / 1e6
		if err != nil || status != http.StatusOK {
			fail(i, "figure", status, err)
			return
		}
		ok()
		mu.Lock()
		rp.figBodies[slug] = body
		mu.Unlock()
	})
	endPhase()

	_, endPhase = b.tr.begin("serve.warm", parent)
	digests := make([][32]byte, len(sc.warm))
	tags := make([]string, len(sc.warm))
	var warmBytes atomic.Int64
	fanOut(len(sc.warm), func(i int) {
		c := grid[sc.warm[i]]
		status, body, tag, lat, err := get(hc, cellsURL(d.base, []string{c.App}, []string{c.Scheme}), "")
		rp.warmMS[i] = float64(lat.Nanoseconds()) / 1e6
		if err != nil || status != http.StatusOK {
			fail(i, "warm query", status, err)
			return
		}
		ok()
		digests[i], tags[i] = sha256.Sum256(body), tag
		warmBytes.Add(int64(len(body)))
		if i < len(grid) { // the permutation prefix names every cell once
			rp.cellBodies[sc.warm[i]] = body
		}
	})
	endPhase()
	rp.warmBytes = warmBytes.Load()
	rp.requested += len(sc.warm)
	for i := range grid {
		rp.etags[sc.warm[i]] = tags[i]
	}
	for i, cell := range sc.warm {
		if tags[i] == "" {
			continue // failed and already accounted
		}
		if digests[i] != sha256.Sum256(rp.cellBodies[cell]) || tags[i] != rp.etags[cell] {
			b.res.fail("serve-replay: warm query %d (%s) answered differently from the first query of that cell", i, grid[cell])
		}
	}

	_, endPhase = b.tr.begin("serve.revalidate", parent)
	var notModified atomic.Int64
	fanOut(len(sc.reval), func(i int) {
		status, _, _, lat, err := get(hc, cellsURL(d.base, []string{grid[sc.reval[i]].App}, []string{grid[sc.reval[i]].Scheme}),
			rp.etags[sc.reval[i]])
		rp.revalMS[i] = float64(lat.Nanoseconds()) / 1e6
		if err != nil || status != http.StatusNotModified {
			fail(i, "revalidation (want 304)", status, err)
			return
		}
		ok()
		notModified.Add(1)
	})
	endPhase()
	rp.wall = time.Since(start)
	rp.notModified = int(notModified.Load())
	rp.peakKB = peakRSSKB(d.cmd.Process.Pid)
	after, err := daemonComputed(hc, d.base)
	if err != nil {
		return nil, err
	}
	rp.computed = after - before
	return rp, nil
}

// serveRep is one serve-replay repetition: set-up (fill a fresh store,
// start the daemon, wait for health) and the timed script.
func (b *bench) serveRep(grid []experiments.Cell, sc script, parent int) (rp *replay, setup time.Duration, store string, err error) {
	hc := httpClient()
	defer hc.CloseIdleConnections()
	store = b.scratch("store")
	_, endSetup := b.tr.begin("serve.setup", parent)
	start := time.Now()
	if _, err := b.fillStore(store, b.cfg.n); err != nil {
		return nil, 0, "", err
	}
	d, err := b.startDaemon(store, hc)
	if err != nil {
		return nil, 0, "", err
	}
	setup = time.Since(start)
	endSetup()
	rp, err = b.runScript(d, hc, grid, sc, parent)
	d.stop()
	return rp, setup, store, err
}

// serveCheck verifies every replay against an in-process Suite over the
// same store: each cell body must carry exactly the result Suite.Result
// returns, each figure must match the registry render. It returns the
// median in-process latency of the warm queries (Suite.Require + Result).
func (b *bench) serveCheck(store string, grid []experiments.Cell, sc script, replays []*replay) (inprocMS float64, err error) {
	s := experiments.NewSuite(b.cfg.n)
	s.Workers = b.cfg.workers
	s.ArtifactDir = store
	if err := s.CacheError(); err != nil {
		return 0, err
	}
	if err := s.Require(grid...); err != nil {
		return 0, err
	}
	want := map[experiments.Cell][]byte{}
	for _, c := range grid {
		res, err := s.Result(c.App, c.Scheme, c.Prefetcher)
		if err != nil {
			return 0, err
		}
		want[c], _ = json.Marshal(res)
	}
	checkBody := func(what string, body []byte, cells int) {
		var cr api.CellsResponse
		if err := json.Unmarshal(body, &cr); err != nil || len(cr.Cells) != cells {
			b.res.fail("serve-replay: %s: malformed cells response", what)
			return
		}
		for _, o := range cr.Cells {
			c := experiments.CellFromAPI(o.Cell)
			if o.Error != nil || !bytes.Equal(o.Result, want[c]) {
				b.res.fail("serve-replay: %s: cell %s differs from Suite.Result", what, c)
			}
		}
	}
	figures := map[string]string{}
	for _, slug := range serveFigures {
		e, _ := experiments.LookupExperiment(slug)
		if figures[slug], err = e.Run(s); err != nil {
			return 0, err
		}
	}
	for _, rp := range replays {
		for app, body := range rp.coldBodies {
			checkBody("cold batch "+app, body, len(experiments.Fig10Schemes)+1)
		}
		for cell, body := range rp.cellBodies {
			if body != nil {
				checkBody("warm query "+grid[cell].String(), body, 1)
			}
		}
		for slug, body := range rp.figBodies {
			if string(body) != figures[slug] {
				b.res.fail("serve-replay: figure %s differs from the registry render", slug)
			}
		}
	}
	lat := make([]float64, min(len(sc.warm), 2000))
	for i := range lat {
		c := grid[sc.warm[i]]
		start := time.Now()
		if err := s.Require(c); err != nil {
			return 0, err
		}
		if _, err := s.Result(c.App, c.Scheme, c.Prefetcher); err != nil {
			return 0, err
		}
		lat[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return median(lat), nil
}

// serveReplay measures the serve-replay workload.
func (b *bench) serveReplay() error {
	grid := serveGrid(b.cfg.n)
	sc := newScript(b.cfg.seed, grid, b.cfg.requests)
	var e endToEnd
	var replays []*replay
	var last string
	start := time.Now()
	for rep := 0; b.reps(rep, start); rep++ {
		rp, setup, store, err := b.serveRep(grid, sc, 0)
		if err != nil {
			return err
		}
		if last != "" {
			os.RemoveAll(last)
		}
		last = store
		replays = append(replays, rp)
		e.add(setup, rp.wall.Nanoseconds(), rp.peakKB, rp.peakKB)
	}
	if _, err := b.serveCheck(last, grid, sc, replays); err != nil {
		return err
	}
	e.report(b.res)
	return nil
}

// serveLayers is the traced serve-replay repetition: client-side latency
// per request class plus /v1/stats deltas.
func (b *bench) serveLayers(parent int, overhead bool) error {
	grid := serveGrid(b.cfg.n)
	sc := newScript(b.cfg.seed, grid, b.cfg.requests)
	rp, _, store, err := b.serveRep(grid, sc, parent)
	if err != nil {
		return err
	}
	replays := []*replay{rp}
	if overhead {
		traced := b.tr
		b.tr = newTracer(false, traced.run)
		plain, _, plainStore, err := b.serveRep(grid, sc, 0)
		b.tr = traced
		if err != nil {
			return err
		}
		os.RemoveAll(plainStore)
		replays = append(replays, plain)
		b.res.set("trace.overhead_s", "s", (rp.wall - plain.wall).Seconds())
	}
	_, end := b.tr.begin("serve.check", parent)
	inproc, err := b.serveCheck(store, grid, sc, replays)
	end()
	if err != nil {
		return err
	}
	b.res.set("serve.cold_batch_ms", "ms", median(rp.coldMS))
	b.res.set("serve.figure_ms", "ms", median(rp.figMS))
	b.res.set("serve.warm_p50_ms", "ms", quantile(rp.warmMS, 0.50))
	b.res.set("serve.warm_p99_ms", "ms", quantile(rp.warmMS, 0.99))
	b.res.set("serve.revalidate_p50_ms", "ms", quantile(rp.revalMS, 0.50))
	b.res.set("serve.revalidate_p99_ms", "ms", quantile(rp.revalMS, 0.99))
	b.res.set("serve.not_modified_ratio", "ratio", float64(rp.notModified)/float64(len(sc.reval)))
	b.res.set("serve.memo_hit_ratio", "ratio", 1-float64(rp.computed)/float64(max(rp.requested, 1)))
	b.res.set("serve.bytes_per_cell", "B", float64(rp.warmBytes)/float64(len(sc.warm)))
	b.res.set("serve.inproc_ms", "ms", inproc)
	return os.RemoveAll(store)
}
