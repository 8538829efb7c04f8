package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/internal/rcache"
	"repro/internal/server"
	"repro/internal/workload"
)

const (
	// gridWorkers is the number of workers behind the coordinator.
	gridWorkers = 2
	// routedPerWorker is the router's default in-flight bound per worker.
	routedPerWorker = 4
	// attemptHeader tags each coordinator-to-worker attempt of a traced run,
	// so the worker's handler time can be matched to the attempt.
	attemptHeader = "X-Perfbench-Attempt"
)

// node is one in-process rbserve instance behind a loopback listener.
type node struct {
	srv *server.Server
	ts  *httptest.Server
}

func (n node) close() {
	n.ts.Close()
	n.srv.Close()
}

// cluster is a coordinator and its workers.
type cluster struct {
	coord   node
	workers []node
	conns   *http.Transport // the coordinator's connections to its workers
	busy    atomic.Int64    // requests the workers are serving
}

// warmClients is the number of closed-loop clients of the warm mix: one
// per processor the run may use.
func warmClients() int { return runtime.GOMAXPROCS(0) }

// bootCluster starts the workers and a coordinator over them. The workers'
// pools together hold GOMAXPROCS simulation slots, and each worker admits
// as many requests as the coordinator routes at once, so it never sheds
// the coordinator. The coordinator admits every warm client and the cold
// batch at once, so it never sheds the benchmark either. Worker transports are named w0, w1, ... in boot order:
// rendezvous routing hashes the name, and a loopback URL's port changes
// from run to run. A non-nil tap instruments every layer.
func bootCluster(tap *gridTap) *cluster {
	quiet := func(string, ...any) {}
	c := &cluster{conns: &http.Transport{MaxIdleConnsPerHost: gridWorkers * routedPerWorker}}
	names := map[string]string{}
	var urls []string
	for i := 0; i < gridWorkers; i++ {
		s := server.New(server.Config{
			Parallel:    max(1, runtime.GOMAXPROCS(0)/gridWorkers),
			MaxInflight: gridWorkers * routedPerWorker,
			Logf:        quiet,
		})
		n := node{srv: s, ts: httptest.NewServer(c.track(tap.wrap(s.Handler())))}
		c.workers = append(c.workers, n)
		names[n.ts.URL] = fmt.Sprintf("w%d", i)
		urls = append(urls, n.ts.URL)
	}
	var rt http.RoundTripper = c.conns
	if tap != nil {
		rt = &tapTransport{tap: tap, base: c.conns}
	}
	client := &grid.RetryClient{HTTP: &http.Client{Transport: rt, Timeout: 2 * time.Minute}, Retries: 2, Base: 50 * time.Millisecond}
	coord := server.New(server.Config{
		Parallel:    1, // the coordinator simulates only /v1/sim misses
		MaxInflight: warmClients() + 1,
		Workers:     urls,
		Logf:        quiet,
		NewTransport: func(base string) grid.Transport {
			return &namedWorker{name: names[base], http: &grid.HTTP{Base: base, Client: client}, tap: tap}
		},
	})
	c.coord = node{srv: coord, ts: httptest.NewServer(tap.wrap(coord.Handler()))}
	return c
}

// track counts the requests h is serving in c.busy.
func (c *cluster) track(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		c.busy.Add(1)
		defer c.busy.Add(-1)
		h.ServeHTTP(w, req)
	})
}

// drain waits until the workers serve no request: a hedge's losing attempt
// may still be simulating after its batch returned.
func (c *cluster) drain() {
	for c.busy.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
}

func (c *cluster) url(path string) string { return c.coord.ts.URL + path }

// rejected sums the requests every node of the cluster shed with 429.
func (c *cluster) rejected(client *http.Client) (int64, error) {
	var n int64
	for _, nd := range append([]node{c.coord}, c.workers...) {
		snap, err := metricsOf(client, nd.ts.URL)
		if err != nil {
			return 0, err
		}
		n += snap.Rejected
	}
	return n, nil
}

// close stops the coordinator, then its workers.
func (c *cluster) close() {
	c.coord.close()
	c.conns.CloseIdleConnections()
	for _, w := range c.workers {
		w.close()
	}
}

// namedWorker is the coordinator's transport to one worker: grid.HTTP under
// a stable name, timed when traced.
type namedWorker struct {
	name string
	http *grid.HTTP
	tap  *gridTap
}

// Name implements grid.Transport.
func (n *namedWorker) Name() string { return n.name }

// RunCell implements grid.Transport.
func (n *namedWorker) RunCell(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
	if n.tap == nil {
		return n.http.RunCell(ctx, req)
	}
	start := time.Now()
	res, err := n.http.RunCell(ctx, req)
	n.tap.record(&n.tap.rpcMs, ms(time.Since(start)))
	return res, err
}

// gridTap times a cluster from outside: the coordinator's worker
// transports, each HTTP attempt under them, and the handlers of every
// server.
type gridTap struct {
	ids atomic.Int64

	mu        sync.Mutex
	rpcMs     []float64          // namedWorker.RunCell calls
	attemptMs map[string]float64 // attempt id → round trip to the end of the body
	handlerMs map[string]float64 // attempt id → the worker's /v1/cell handler
	cellMs    []float64          // worker /v1/cell handlers
	batchMs   []float64          // coordinator /v1/batch handlers
	simMs     []float64          // coordinator /v1/sim handlers
}

func newGridTap() *gridTap {
	return &gridTap{attemptMs: map[string]float64{}, handlerMs: map[string]float64{}}
}

func (t *gridTap) record(dst *[]float64, v float64) {
	t.mu.Lock()
	*dst = append(*dst, v)
	t.mu.Unlock()
}

// wrap is the server middleware of a traced cluster: it times each
// request's handler by route. A nil tap leaves h as it is.
func (t *gridTap) wrap(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, req)
		d := ms(time.Since(start))
		t.mu.Lock()
		defer t.mu.Unlock()
		switch req.URL.Path {
		case "/v1/cell":
			t.cellMs = append(t.cellMs, d)
			if id := req.Header.Get(attemptHeader); id != "" {
				t.handlerMs[id] = d
			}
		case "/v1/batch":
			t.batchMs = append(t.batchMs, d)
		case "/v1/sim":
			t.simMs = append(t.simMs, d)
		}
	})
}

// wireMs is, for each worker attempt, its round trip less the worker's
// handler time: connection, transfer and encoding.
func (t *gridTap) wireMs() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for id, rt := range t.attemptMs {
		if h, ok := t.handlerMs[id]; ok {
			out = append(out, rt-h)
		}
	}
	return out
}

// tapTransport tags each worker attempt with an id and times it until its
// response body is closed.
type tapTransport struct {
	tap  *gridTap
	base http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (t *tapTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := strconv.FormatInt(t.tap.ids.Add(1), 10)
	req = req.Clone(req.Context())
	req.Header.Set(attemptHeader, id)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.tap.mu.Lock()
		t.tap.attemptMs[id] = ms(time.Since(start))
		t.tap.mu.Unlock()
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// fetch GETs url and returns the body of a 2xx response.
func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", url, resp.StatusCode, body)
	}
	return body, nil
}

// metricsOf reads a server's /metrics.
func metricsOf(client *http.Client, base string) (server.MetricsSnapshot, error) {
	var snap server.MetricsSnapshot
	body, err := fetch(client, base+"/metrics")
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(body, &snap)
}

// hitRatio is the share of the lookups between two snapshots that hit.
func hitRatio(before, after rcache.Stats) float64 {
	hits := after.Hits - before.Hits
	all := hits + after.Misses - before.Misses + after.Joins - before.Joins
	if all == 0 {
		return 0
	}
	return float64(hits) / float64(all)
}

// warmMix is the seeded order of the warm requests: equal shares of warm
// batches (shared-tier hits plus render), rendered experiments
// (response-cache hits) and /v1/sim hits spread over size.simCells seeded
// cells. No record of real traffic exists to weight the three kinds by, so
// each gets the same share.
func warmMix(cfg config) []string {
	rng := seeded(cfg.seed)
	machines := []string{"baseline", "rb-limited", "rb-full", "ideal"}
	wls := workload.SPECint2000()
	var mix []string
	for i := 0; i < cfg.size.simCells; i++ {
		mix = append(mix, "/v1/batch?artifact="+cfg.size.batch, "/v1/experiment/"+cfg.size.batch+"?format=text")
	}
	for _, k := range rng.Perm(len(machines) * len(wls))[:cfg.size.simCells] {
		mix = append(mix, fmt.Sprintf("/v1/sim?workload=%s&machine=%s&width=8", wls[k%len(wls)].Name, machines[k/len(wls)]))
	}
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// warmUp sends the cold batch to a fresh cluster and checks it against the
// serial oracle, then sends every warm path once and returns each one's
// body digest. The rendered experiment must match the oracle too.
func warmUp(r *run, client *http.Client, c *cluster, batch string, mix []string) (map[string]string, error) {
	cfg := r.cfg
	body, err := fetch(client, c.url(batch))
	if err != nil {
		return nil, err
	}
	err = checkFigure(cfg, cfg.size.batch, body, nil)
	r.check(err == nil, "set-up cold batch: %v", err)
	digests := map[string]string{}
	for _, p := range mix {
		if _, done := digests[p]; done {
			continue
		}
		body, err := fetch(client, c.url(p))
		if err != nil {
			return nil, err
		}
		digests[p] = digestOf(body)
		if strings.HasPrefix(p, "/v1/experiment/") {
			err := checkFigure(cfg, cfg.size.batch, body, nil)
			r.check(err == nil, "set-up %s: %v", p, err)
		}
	}
	return digests, nil
}

// runGridBatch is the grid-batch workload. Each repetition boots a fresh
// cluster and times one cold batch through it; after each, closed-loop
// clients send the warm mix to a cluster that set-up booted and warmed.
func runGridBatch(_ context.Context, r *run) error {
	cfg := r.cfg
	clients := warmClients()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}, Timeout: 2 * time.Minute}
	defer client.CloseIdleConnections()
	batch := "/v1/batch?artifact=" + cfg.size.batch + "&format=text"
	mix := warmMix(cfg)

	var (
		warmC   *cluster
		warmTap *gridTap
		want    map[string]string // warm path → body digest
		traceS  []float64
	)
	if cfg.traced {
		warmTap = newGridTap()
	}
	_, err := r.timeSetups(cfg.size.setups, func(i int) error {
		start := time.Now()
		if err := buildTraces(workload.SPECint2000(), i == 0); err != nil {
			return err
		}
		traceS = append(traceS, time.Since(start).Seconds())
		if i == 0 {
			warmC = bootCluster(warmTap)
			var err error
			want, err = warmUp(r, client, warmC, batch, mix)
			return err
		}
		c := bootCluster(nil)
		defer c.close()
		got, err := warmUp(r, client, c, batch, mix)
		if err != nil {
			return err
		}
		for p, d := range got {
			r.check(d == want[p], "%s: body differs between set-ups", p)
		}
		return nil
	})
	if warmC != nil {
		defer warmC.close()
	}
	if err != nil {
		return err
	}
	r.metrics["workload.trace_s"] = quantile(traceS, 0.5)

	warmOp := func(i int) error {
		p := mix[i%len(mix)]
		body, err := fetch(client, warmC.url(p))
		if err != nil {
			return err
		}
		if d := digestOf(body); d != want[p] {
			return fmt.Errorf("%s: body digest %.12s, set-up saw %.12s", p, d, want[p])
		}
		return nil
	}
	// cold boots a fresh cluster, times one cold batch through it, and
	// checks the body against the serial oracle and the routing against
	// earlier repetitions.
	cold := func(tap *gridTap) (float64, server.MetricsSnapshot, error) {
		c := bootCluster(tap)
		defer c.close()
		start := time.Now()
		body, err := fetch(client, c.url(batch))
		secs := time.Since(start).Seconds()
		if err == nil {
			err = checkFigure(cfg, cfg.size.batch, body, nil)
		}
		r.check(err == nil, "cold batch: %v", err)
		snap, err := metricsOf(client, c.coord.ts.URL)
		if err != nil {
			return 0, snap, err
		}
		var rpcs int64
		for _, ws := range snap.Grid.Workers {
			r.count("routed."+ws.Name, ws.Routed-ws.Hedges)
			rpcs += ws.Routed
			r.add("failovers", ws.Failed)
		}
		r.count("batch_cells", snap.Grid.SharedCache.Misses)
		r.add("rpcs", rpcs)
		r.add("hedges", snap.Grid.Hedges)
		rejected, err := c.rejected(client)
		r.add("rejected_429", rejected)
		c.drain()
		r.settle()
		return secs, snap, err
	}
	if cfg.traced {
		return tracedGrid(r, client, warmC, warmTap, cold, warmOp)
	}

	var warm warmStats
	err = r.loop(cfg.budget, func() error {
		d, err := r.cold(1, func(int) (time.Duration, error) {
			secs, _, err := cold(nil)
			return time.Duration(secs * float64(time.Second)), err
		})
		if err != nil {
			return err
		}
		warm.burst(r, clients, r.warmFor(d), warmOp)
		return nil
	})
	if err != nil {
		return err
	}
	warm.report(r)
	return nil
}

// tracedGrid alternates a plain cold batch with one through an
// instrumented cluster, sends the warm mix to the instrumented warm
// cluster, and reports the grid and server layers.
func tracedGrid(r *run, client *http.Client, warmC *cluster, warmTap *gridTap,
	cold func(*gridTap) (float64, server.MetricsSnapshot, error), warmOp func(int) error) error {
	coldTap := newGridTap()
	before, err := metricsOf(client, warmC.coord.ts.URL)
	if err != nil {
		return err
	}
	var (
		plain, traced []float64
		last          server.MetricsSnapshot
		cells         int64
		warm          warmStats
	)
	err = r.loop(r.cfg.budget/2, func() error {
		secs, _, err := cold(nil)
		if err != nil {
			return err
		}
		plain = append(plain, secs)
		if secs, last, err = cold(coldTap); err != nil {
			return err
		}
		traced = append(traced, secs)
		cells += last.Grid.SharedCache.Misses
		warm.burst(r, warmClients(), r.cfg.size.warm, warmOp)
		return nil
	})
	if err != nil {
		return err
	}
	after, err := metricsOf(client, warmC.coord.ts.URL)
	if err != nil {
		return err
	}
	rejected, err := warmC.rejected(client)
	if err != nil {
		return err
	}
	var most, routed int64
	for _, ws := range last.Grid.Workers {
		routed += ws.Routed
		most = max(most, ws.Routed)
	}
	m := r.metrics
	m["grid.wire_ms.p50"] = quantile(coldTap.wireMs(), 0.5)
	coldTap.mu.Lock()
	m["grid.rpc_ms.p50"] = quantile(coldTap.rpcMs, 0.5)
	m["grid.rpc_ms.p99"] = quantile(coldTap.rpcMs, 0.99)
	m["server.cell_ms.p50"] = quantile(coldTap.cellMs, 0.5)
	if n := len(coldTap.cellMs); n > 0 {
		m["grid.useful_ratio"] = float64(cells) / float64(n)
	}
	coldTap.mu.Unlock()
	warmTap.mu.Lock()
	m["server.batch_ms.p50"] = quantile(warmTap.batchMs, 0.5)
	m["server.sim_ms.p50"] = quantile(warmTap.simMs, 0.5)
	warmTap.mu.Unlock()
	if routed > 0 {
		m["grid.max_worker_share"] = float64(most) / float64(routed)
	}
	m["grid.hedges"] = float64(r.totals["hedges"])
	m["grid.failovers"] = float64(r.totals["failovers"])
	for i := 0; i < gridWorkers; i++ {
		name := fmt.Sprintf("w%d", i)
		m["grid.routed."+name] = float64(r.work["routed."+name])
	}
	m["grid.shared_hit_ratio"] = hitRatio(before.Grid.SharedCache, after.Grid.SharedCache)
	m["server.resp_hit_ratio"] = hitRatio(before.ResponseCache, after.ResponseCache)
	m["server.rejected_429"] = float64(r.totals["rejected_429"] + rejected)
	m["bench.trace_overhead_pct"] = 100 * (quantile(traced, 0.5)/quantile(plain, 0.5) - 1)
	r.add("repetitions", int64(len(plain)+len(traced)))
	return nil
}
