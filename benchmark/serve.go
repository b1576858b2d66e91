package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// The two service workloads drive in-process titand servers over loopback
// HTTP from keep-alive clients in a closed loop: titand's callers are
// build tools that each wait for their reply.
//
// serve-hot: one server, eight medium units all compiled in set-up, every
// timed request a memory hit. Only the service layer works.
//
// serve-churn: two servers joined in a cluster, each with a memory budget
// of a quarter of the steady working set and a disk tier; one request in
// five carries a unit never seen before and the rest draw Zipf(1.1) over
// the churnWindow most recently introduced units, alternating nodes. The
// same cache is now written, evicted, re-read from disk and fetched
// across the cluster, and the misses compile and simulate for real.

const (
	serveClients = 2   // concurrent closed-loop callers (the sandbox has 2 cores)
	servePassOps = 200 // requests per pass
	hotUnits     = 8
	churnWindow  = 64 // units a request can draw from: the steady working set
	churnBlock   = 5  // one fresh unit per block of this many requests
	runProcs     = 2  // "processors" of every request, so artifacts carry a run
)

var (
	hotSpec   = unitSpec{procs: 8, calls: 2, loops: 4, n: dim * dim, reps: 1, shapes: allShapes}
	churnSpec = unitSpec{procs: 4, calls: 2, loops: 4, n: dim * dim, reps: 1, shapes: allShapes}
)

// request is one POST /compile of the stream.
type request struct {
	unit int // index into the workload's units
	node int
}

// churnStream draws serve-churn's request stream. It is a pure function of
// the seed: request i is the same whichever client asks for it and
// whenever, because requests are drawn strictly in index order.
type churnStream struct {
	mu         sync.Mutex
	rng        *rand.Rand
	zipf       *rand.Zipf
	reqs       []request
	introduced int // units introduced so far; unit u is the u-th
	freshAt    int // position of the fresh request inside the current block
}

func newChurnStream(seed int64) *churnStream {
	rng := rand.New(rand.NewSource(seed))
	// Rank 0 is the newest unit: popularity follows recency, so the
	// stream is stationary while new units keep arriving.
	return &churnStream{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, churnWindow-1), introduced: churnWindow}
}

func (s *churnStream) at(i int) request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.reqs) <= i {
		n := len(s.reqs)
		if n%churnBlock == 0 {
			s.freshAt = s.rng.Intn(churnBlock)
		}
		r := request{node: n % 2}
		if n%churnBlock == s.freshAt {
			r.unit = s.introduced
			s.introduced++
		} else {
			r.unit = s.introduced - 1 - int(s.zipf.Uint64())
		}
		s.reqs = append(s.reqs, r)
	}
	return s.reqs[i]
}

// churnUnit generates unit u of a seed on demand; it depends on nothing
// but (seed, u), so the stream never has to hold more than it is using.
func churnUnit(seed int64, u int) unit {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(u)))
	return genUnit(rng, churnSpec, fmt.Sprintf("churn seed %d #%d", seed, u))
}

// node is one in-process titand.
type node struct {
	srv  *service.Server
	http *httptest.Server
	clu  *cluster.Cluster
}

type serveWorkload struct {
	churn bool
	seed  int64
	dir   string
	nodes []*node
	httpc []*http.Client

	hot    []unit
	keys   []string // serve-hot: the key each unit got in set-up
	stream *churnStream
	ringMu sync.Mutex
	ring   map[int]unit // serve-churn: units still inside the window

	samples  [][]byte // response bodies kept for the stand-alone cache timings
	marked   []service.MetricsResponse
	markedAt time.Time
}

func (w *serveWorkload) clients() int  { return serveClients }
func (w *serveWorkload) passOps() int  { return servePassOps }
func (w *serveWorkload) finish() error { return nil }

func (w *serveWorkload) setup(seed int64) error {
	w.seed = seed
	w.httpc = make([]*http.Client, serveClients)
	for c := range w.httpc {
		w.httpc[c] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: 60 * time.Second}
	}
	w.dir = filepath.Join(scratchDir, fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	if !w.churn {
		return w.setupHot(seed)
	}
	return w.setupChurn(seed)
}

func (w *serveWorkload) setupHot(seed int64) error {
	srv, err := service.New(service.Config{})
	if err != nil {
		return err
	}
	w.nodes = []*node{{srv: srv, http: httptest.NewServer(srv.Handler())}}
	w.hot = genUnits(seed, hotUnits, hotSpec, "hot")
	w.keys = make([]string, len(w.hot))
	for k, u := range w.hot {
		resp, body, err := post(nil, 0, 0, w.httpc[0], w.nodes[0].http.URL, u)
		if err != nil {
			return fmt.Errorf("compiling unit %d: %w", k, err)
		}
		w.keys[k] = resp.Key
		w.samples = append(w.samples, body)
	}
	return nil
}

func (w *serveWorkload) setupChurn(seed int64) error {
	// The memory budget is a quarter of the working set's artifact bytes,
	// which only a compile can tell: size it from a few units on a
	// throw-away server before building the cluster.
	srv, err := service.New(service.Config{})
	if err != nil {
		return err
	}
	probe := []*node{{srv: srv, http: httptest.NewServer(srv.Handler())}}
	defer stopNodes(probe)
	var artifactBytes int64
	const sized = 8
	for u := 0; u < sized; u++ {
		_, body, err := post(nil, 0, 0, w.httpc[0], probe[0].http.URL, churnUnit(seed, u))
		if err != nil {
			return fmt.Errorf("sizing unit %d: %w", u, err)
		}
		artifactBytes += int64(len(body))
		w.samples = append(w.samples, body)
	}
	budget := artifactBytes / sized * churnWindow / 4

	// Listeners first: the peer URLs must exist before cluster.New can
	// build the ring, so the handlers are swapped in afterwards.
	const n = 2
	handlers := make([]atomic.Value, n)
	urls := make([]string, n)
	w.nodes = make([]*node, n)
	for i := range w.nodes {
		i := i
		w.nodes[i] = &node{http: httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			h, _ := handlers[i].Load().(http.Handler)
			if h == nil {
				http.Error(rw, "node starting", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(rw, r)
		}))}
		urls[i] = w.nodes[i].http.URL
	}
	for i, nd := range w.nodes {
		clu, err := cluster.New(cluster.Config{Self: urls[i], Peers: urls, FetchTimeout: 2 * time.Second, ProbeInterval: -1})
		if err != nil {
			return err
		}
		nd.clu = clu
		nd.srv, err = service.New(service.Config{Cluster: clu, CacheBytes: budget, CacheDir: filepath.Join(w.dir, fmt.Sprintf("node%d", i))})
		if err != nil {
			return err
		}
		handlers[i].Store(nd.srv.Handler())
	}
	for _, nd := range w.nodes {
		nd.clu.ProbeOnce()
	}

	// Introduce the first window of units, alternating nodes, so the
	// timed stream starts from the steady state it then maintains.
	w.stream = newChurnStream(seed)
	w.ring = map[int]unit{}
	for u := 0; u < churnWindow; u++ {
		if _, _, err := post(nil, 0, 0, w.httpc[u%serveClients], urls[u%n], w.churnUnit(u)); err != nil {
			return fmt.Errorf("introducing unit %d: %w", u, err)
		}
	}
	return nil
}

// churnUnit returns unit u, generating it on first use and forgetting
// units that have left the window for good.
func (w *serveWorkload) churnUnit(u int) unit {
	w.ringMu.Lock()
	defer w.ringMu.Unlock()
	un, ok := w.ring[u]
	if !ok {
		un = churnUnit(w.seed, u)
		w.ring[u] = un
		delete(w.ring, u-2*churnWindow)
	}
	return un
}

// encodeRequest is the body of every POST /compile: the unit at the full
// configuration, simulated so that the artifact carries a run.
func encodeRequest(u unit) ([]byte, error) {
	return json.Marshal(service.CompileRequest{
		Source:     u.src,
		Options:    service.CompileOptions{Inline: true, Vectorize: true, Parallelize: true},
		Processors: runProcs,
	})
}

// post sends one unit to one node and checks the reply: 200, a key, and
// the run's exit code and output against the unit's expectation. Traced,
// it records encode, round trip (with the server's own elapsed_ns as a
// child) and decode under root.
func post(tr *tracer, root, op int, client *http.Client, url string, u unit) (*service.CompileResponse, []byte, error) {
	start := time.Now()
	id := tr.begin(root, op, "client.encode")
	body, err := encodeRequest(u)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}

	rt := tr.begin(root, op, "client.round_trip")
	resp, err := client.Post(url+"/compile", "application/json", bytes.NewReader(body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	tr.end(rt)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}

	id = tr.begin(root, op, "client.decode")
	var cr service.CompileResponse
	err = json.Unmarshal(data, &cr)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		tr.add(rt, op, "service.handler", tr.startOf(rt), cr.ElapsedNS)
		tier := cr.CacheTier
		if !cr.Cached {
			tier = "compiled"
		}
		tr.observe(op, "service.client_ns."+tier, float64(time.Since(start)))
		tr.observe(op, "service.resp_bytes", float64(len(data)))
	}
	if len(cr.Key) != 64 {
		return nil, nil, fmt.Errorf("reply carries key %q", cr.Key)
	}
	if cr.Run == nil {
		return nil, nil, fmt.Errorf("reply carries no run")
	}
	return &cr, data, checkRun(cr.Run.ExitCode, cr.Run.Output, u.want)
}

func (w *serveWorkload) do(tr *tracer, root, i, client int) error {
	if !w.churn {
		k := i % len(w.hot)
		cr, _, err := post(tr, root, i, w.httpc[client], w.nodes[0].http.URL, w.hot[k])
		if err != nil {
			return err
		}
		if !cr.Cached || cr.CacheTier != service.TierMemory || cr.Key != w.keys[k] {
			return fmt.Errorf("unit %d: cached=%v tier=%q key=%s, want a memory hit on %s", k, cr.Cached, cr.CacheTier, cr.Key, w.keys[k])
		}
		return nil
	}
	r := w.stream.at(i)
	_, _, err := post(tr, root, i, w.httpc[client], w.nodes[r.node].http.URL, w.churnUnit(r.unit))
	return err
}

func (w *serveWorkload) metrics() ([]service.MetricsResponse, error) {
	out := make([]service.MetricsResponse, len(w.nodes))
	for i, nd := range w.nodes {
		resp, err := w.httpc[0].Get(nd.http.URL + "/metrics")
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&out[i])
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (w *serveWorkload) mark() (err error) {
	w.marked, err = w.metrics()
	w.markedAt = time.Now()
	return err
}

// layers reads the servers' own counters (GET /metrics now, minus the
// snapshot mark took) and times three things no request isolates: the
// handler without a socket, and a stand-alone service.Cache fed the same
// artifact bytes.
func (w *serveWorkload) layers(m map[string]float64) error {
	wall := float64(time.Since(w.markedAt))
	now, err := w.metrics()
	if err != nil {
		return err
	}
	var passNS float64
	for i, after := range now {
		before := w.marked[i]
		c0, c1 := before.Compiles, after.Compiles
		m["service.hits.memory"] += float64(c1.MemoryHits - c0.MemoryHits)
		m["service.hits.disk"] += float64(c1.DiskHits - c0.DiskHits)
		m["service.hits.remote"] += float64(c1.RemoteHits - c0.RemoteHits)
		m["service.hits.inflight"] += float64(c1.InflightHits - c0.InflightHits)
		m["service.misses"] += float64(c1.CacheMisses - c0.CacheMisses)
		m["service.rejected"] += float64(c1.Rejected - c0.Rejected)
		m["service.evictions"] += float64(after.Cache.Evictions - before.Cache.Evictions)
		for name, p := range after.Passes {
			passNS += float64(p.TotalNS - before.Passes[name].TotalNS)
		}
		if after.Cluster == nil {
			continue
		}
		for j, p1 := range after.Cluster.Peers {
			p0 := before.Cluster.Peers[j]
			m["cluster.fetch_hits"] += float64(p1.FetchHits - p0.FetchHits)
			m["cluster.fetch_misses"] += float64(p1.FetchMisses - p0.FetchMisses)
			m["cluster.pushes"] += float64(p1.Pushes - p0.Pushes)
			m["cluster.errors"] += float64(p1.FetchErrors - p0.FetchErrors + p1.FetchTimeouts - p0.FetchTimeouts +
				p1.PushErrors - p0.PushErrors + p1.BreakerDrops - p0.BreakerDrops)
		}
	}
	hits := m["service.hits.memory"] + m["service.hits.disk"] + m["service.hits.remote"] + m["service.hits.inflight"]
	m["service.hit_ratio"] = ratio(hits, hits+m["service.misses"])
	m["service.compile_share"] = ratio(passNS, wall)

	// The handler with no socket: units whose artifacts are cached, served
	// through ServeHTTP on a recorder.
	h := w.nodes[0].srv.Handler()
	var direct []float64
	for k := 0; k < 64; k++ {
		body, err := encodeRequest(w.cachedUnit(k))
		if err != nil {
			return err
		}
		req := httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		direct = append(direct, float64(time.Since(start))/1e6)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("direct handler call: status %d", rec.Code)
		}
	}
	m["service.handler_direct_ms"] = median(direct)
	return w.cacheTimings(m)
}

// cachedUnit picks a unit node 0 can serve without compiling.
func (w *serveWorkload) cachedUnit(k int) unit {
	if !w.churn {
		return w.hot[k%len(w.hot)]
	}
	w.stream.mu.Lock()
	newest := w.stream.introduced - 1
	w.stream.mu.Unlock()
	return w.churnUnit(newest - k%(churnWindow/4))
}

// cacheTimings feeds a stand-alone service.Cache the artifact bytes the
// servers produced: put, get from memory, and get from disk through a
// second cache over the same directory whose memory is empty.
func (w *serveWorkload) cacheTimings(m map[string]float64) error {
	dir := filepath.Join(w.dir, "standalone")
	warm, err := service.NewCache(-1, dir)
	if err != nil {
		return err
	}
	var put, mem, disk []float64
	timeUS := func(f func()) float64 {
		start := time.Now()
		f()
		return float64(time.Since(start)) / 1e3
	}
	key := func(k int) string { return fmt.Sprintf("%064x", k) }
	for k, blob := range w.samples {
		put = append(put, timeUS(func() { warm.Put(key(k), blob) }))
	}
	cold, err := service.NewCache(-1, dir)
	if err != nil {
		return err
	}
	for k := range w.samples {
		var tier string
		mem = append(mem, timeUS(func() { _, tier = warm.Get(key(k)) }))
		if tier != service.TierMemory {
			return fmt.Errorf("stand-alone cache: tier %q, want memory", tier)
		}
		disk = append(disk, timeUS(func() { _, tier = cold.Get(key(k)) }))
		if tier != service.TierDisk {
			return fmt.Errorf("stand-alone cache: tier %q, want disk", tier)
		}
	}
	m["service.cache_put_us"] = median(put)
	m["service.cache_get_mem_us"] = median(mem)
	m["service.cache_get_disk_us"] = median(disk)
	return nil
}

func stopNodes(nodes []*node) {
	for _, nd := range nodes {
		nd.http.Close()
		if nd.srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			nd.srv.Drain(ctx) //nolint:errcheck // a push still in flight at the deadline is only a lost cache entry
			cancel()
		}
		if nd.clu != nil {
			nd.clu.Close()
		}
	}
}

func (w *serveWorkload) close() {
	stopNodes(w.nodes)
	w.nodes = nil
	for _, c := range w.httpc {
		c.CloseIdleConnections()
	}
	os.RemoveAll(w.dir)
}
