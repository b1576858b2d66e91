package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/driver"
)

// stubPeer is a cluster member that counts the peer-tier requests it
// gets, accepts every write, and answers a GET with the bytes planted
// under its path (404 for anything else), after delay.
type stubPeer struct {
	*httptest.Server
	delay   time.Duration
	mu      sync.Mutex
	planted map[string][]byte
	counts  map[string]int // "GET /schedules/" → requests
}

func newStubPeer(t *testing.T) *stubPeer {
	t.Helper()
	p := &stubPeer{planted: map[string][]byte{}, counts: map[string]int{}}
	p.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		prefix, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
		p.mu.Lock()
		p.counts[r.Method+" /"+prefix+"/"]++
		body, ok := p.planted[r.URL.Path]
		p.mu.Unlock()
		if r.Method != http.MethodGet {
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if !ok {
			http.NotFound(w, r)
			return
		}
		time.Sleep(p.delay)
		w.Write(body)
	}))
	t.Cleanup(p.Close)
	return p
}

func (p *stubPeer) plant(path string, body []byte) {
	p.mu.Lock()
	p.planted[path] = body
	p.mu.Unlock()
}

func (p *stubPeer) count(methodPrefix string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts[methodPrefix]
}

// stubCluster is a two-member ring: this node and the stub.
func stubCluster(t *testing.T, stub *stubPeer) *cluster.Cluster {
	t.Helper()
	self := "http://self.invalid:1"
	clu, err := cluster.New(cluster.Config{
		Self:          self,
		Peers:         []string{self, stub.URL},
		FetchTimeout:  2 * time.Second,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clu.Close)
	clu.ProbeOnce()
	return clu
}

// serveDirect runs one request through the route table without a socket.
func serveDirect(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

func metricsDirect(t *testing.T, h http.Handler) MetricsResponse {
	t.Helper()
	var m MetricsResponse
	if err := json.Unmarshal(serveDirect(h, "GET", "/metrics", nil).Body.Bytes(), &m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return m
}

// catalogOf serializes catalog number n: procs procedures kn_f0, kn_f1, …,
// where kn_fi(x) = x·(i+1) + n.
func catalogOf(t *testing.T, n, procs int) []byte {
	t.Helper()
	var src strings.Builder
	for i := 0; i < procs; i++ {
		fmt.Fprintf(&src, "float k%d_f%d(float x) { return x * %d.0f + %d.0f; }\n", n, i, i+1, n)
	}
	var buf bytes.Buffer
	if err := driver.WriteCatalogFromSource(&buf, src.String()); err != nil {
		t.Fatalf("build catalog %d: %v", n, err)
	}
	return buf.Bytes()
}

func catalogID(t *testing.T, raw []byte) string {
	t.Helper()
	ce, err := decodeCatalog(raw)
	if err != nil {
		t.Fatal(err)
	}
	return ce.rec.ID
}

// callsCatalog is a unit that calls catalog n's kn_f0 and exits 0 when
// the call returns what kn_f0 computes.
func callsCatalog(n int) string {
	return fmt.Sprintf(`
float k%[1]d_f0(float x);
int main(void) {
	float r;
	r = k%[1]d_f0(2.0f);
	if (r == %[2]d.0f) return 0;
	return 1;
}
`, n, 2+n)
}

// TestStorePlanFloodBounded: a peer PUTting tuned plans without limit
// cannot grow the daemon past its budget. Plans share the artifacts' LRU,
// so the flood evicts instead of accumulating.
func TestStorePlanFloodBounded(t *testing.T) {
	s, err := New(Config{CacheBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	const plans = 10000
	minPlan := 0
	var lastEvictions int64
	for i := 0; i < plans; i++ {
		plan := fmt.Sprintf(`{"schedules":[{"loop":{"proc":"f","line":%d,"col":1},"schedule":{"vl":32,"unroll":1}}],`+
			`"decisions":null,"default_cycles":0,"tuned_cycles":0,"measured":0}`, i+1)
		if minPlan == 0 || len(plan) < minPlan {
			minPlan = len(plan)
		}
		if rec := serveDirect(h, "PUT", fmt.Sprintf("/schedules/%064x", i), []byte(plan)); rec.Code != http.StatusNoContent {
			t.Fatalf("PUT plan %d: %d %s", i, rec.Code, rec.Body)
		}
		if (i+1)%100 != 0 {
			continue
		}
		m := metricsDirect(t, h)
		if m.Cache.Bytes > m.Cache.BudgetBytes {
			t.Fatalf("after %d plans: cache.bytes %d > budget %d", i+1, m.Cache.Bytes, m.Cache.BudgetBytes)
		}
		if m.Tune.Entries > int(m.Cache.BudgetBytes)/minPlan || m.Tune.Entries != m.Cache.Entries {
			t.Fatalf("after %d plans: tune.entries %d, cache.entries %d, budget %d", i+1, m.Tune.Entries, m.Cache.Entries, m.Cache.BudgetBytes)
		}
		if lastEvictions > 0 && m.Cache.Evictions <= lastEvictions {
			t.Fatalf("after %d plans: evictions stalled at %d", i+1, m.Cache.Evictions)
		}
		lastEvictions = m.Cache.Evictions
	}
	m := metricsDirect(t, h)
	if m.Cache.Evictions == 0 || int64(m.Tune.Entries)+m.Cache.Evictions != plans {
		t.Errorf("entries %d + evictions %d, want %d with evictions > 0", m.Tune.Entries, m.Cache.Evictions, plans)
	}
}

// TestStoreCatalogUploadsBounded: catalogs are pinned, so a client
// uploading them without limit is refused with 507 once they would pass
// the budget; nothing accepted before is lost, and a refused catalog is
// not written through to its owner.
func TestStoreCatalogUploadsBounded(t *testing.T) {
	stub := newStubPeer(t)
	clu := stubCluster(t, stub)
	const budget = 256 << 10
	s, ts := newTestServer(t, Config{CacheBytes: budget, Cluster: clu})

	upload := func(raw []byte) (int, string) {
		resp, err := http.Post(ts.URL+"/catalogs", "application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("POST /catalogs: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	var accepted []string
	refusedStubOwned := false
	for n := 0; !refusedStubOwned; n++ {
		if n > 100 {
			t.Fatal("100 catalogs of ~19 KB fit a 256 KiB budget")
		}
		raw := catalogOf(t, n, 400)
		id := catalogID(t, raw)
		s.inflight.Wait()
		pushed := stub.count("PUT /catalogs/")
		code, body := upload(raw)
		s.inflight.Wait()
		switch code {
		case http.StatusCreated:
			if len(accepted) < n {
				t.Fatalf("catalog %d accepted after an earlier one was refused", n)
			}
			accepted = append(accepted, id)
		case http.StatusInsufficientStorage:
			if !strings.Contains(body, strconv.Itoa(budget)) {
				t.Errorf("507 does not name the %d-byte budget: %s", budget, body)
			}
			if got := stub.count("PUT /catalogs/"); got != pushed {
				t.Errorf("refused catalog was pushed: %d PUTs to the stub, was %d", got, pushed)
			}
			refusedStubOwned = clu.Owner(id) != nil
		default:
			t.Fatalf("upload %d: %d %s", n, code, body)
		}
	}
	if len(accepted) == 0 {
		t.Fatal("no catalog fit")
	}
	m := getMetrics(t, ts)
	if m.Cache.Bytes > m.Cache.BudgetBytes || m.Catalogs != len(accepted) {
		t.Errorf("cache.bytes %d (budget %d), catalogs %d, want %d", m.Cache.Bytes, m.Cache.BudgetBytes, m.Catalogs, len(accepted))
	}

	resp, err := http.Get(ts.URL + "/catalogs")
	if err != nil {
		t.Fatal(err)
	}
	var list CatalogListResponse
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	listed := map[string]bool{}
	for _, rec := range list.Catalogs {
		listed[rec.ID] = true
	}
	for n, id := range accepted {
		if !listed[id] {
			t.Errorf("catalog %d (%s) no longer listed", n, id)
		}
		out, code := postCompile(t, ts, CompileRequest{
			Source:     callsCatalog(n),
			Options:    CompileOptions{Inline: true, Catalogs: []string{id}},
			Processors: 1,
		})
		if code != http.StatusOK || out.Report.Inline.CallsExpanded == 0 || out.Run == nil || out.Run.ExitCode != 0 {
			t.Errorf("catalog %d after the refusal: status %d, run %+v", n, code, out.Run)
		}
	}
}

// TestStoreCatalogFetchOverBudget: a catalog a peer holds but this node
// has no room to pin fails the compile with a 400 naming the budget.
func TestStoreCatalogFetchOverBudget(t *testing.T) {
	stub := newStubPeer(t)
	raw := catalogOf(t, 0, 50)
	id := catalogID(t, raw)
	stub.plant("/catalogs/"+id, raw)
	const budget = 1 << 10
	_, ts := newTestServer(t, Config{CacheBytes: budget, Cluster: stubCluster(t, stub)})

	body, _ := json.Marshal(CompileRequest{Source: callsCatalog(0), Options: CompileOptions{Inline: true, Catalogs: []string{id}}})
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), strconv.Itoa(budget)) {
		t.Errorf("status %d %s, want 400 naming the %d-byte budget", resp.StatusCode, msg, budget)
	}
	if n := stub.count("GET /catalogs/"); n != 1 {
		t.Errorf("%d catalog fetches, want 1", n)
	}
}

// TestStoreOwnerFetchesNothing: on the key's owner an artifact miss and
// a plan miss are computed here; no peer is asked.
func TestStoreOwnerFetchesNothing(t *testing.T) {
	stub := newStubPeer(t)
	clu := stubCluster(t, stub)
	_, ts := newTestServer(t, Config{Cluster: clu})
	var req CompileRequest
	for i := 0; ; i++ {
		req = CompileRequest{Source: fmt.Sprintf("%s/* unit %d */\n", daxpySrc, i), Options: tuneOpts(), Processors: 1}
		if err := validateUnit(&req); err != nil {
			t.Fatal(err)
		}
		plan, err := planKey(req, req.Options.driverOptions(nil))
		if err != nil {
			t.Fatal(err)
		}
		if clu.Owner(keyFor(t, req)) == nil && clu.Owner(plan) == nil {
			break
		}
	}
	if _, code := postCompile(t, ts, req); code != http.StatusOK {
		t.Fatalf("tuned compile: %d", code)
	}
	m := getMetrics(t, ts)
	if m.Tune.Tunes != 1 || m.Compiles.CacheMisses != 1 {
		t.Errorf("tunes %d, misses %d, want 1 and 1", m.Tune.Tunes, m.Compiles.CacheMisses)
	}
	if n := stub.count("GET /cache/") + stub.count("GET /schedules/"); n != 0 {
		t.Errorf("the owner fetched %d times from its peer", n)
	}
	for _, p := range m.Cluster.Peers {
		if p.FetchHits+p.FetchMisses+p.FetchErrors+p.FetchTimeouts+p.BreakerDrops != 0 {
			t.Errorf("peer %s fetch counters moved: %+v", p.URL, p)
		}
	}
}

// TestStorePlanFetchSingleflight: concurrent tuned requests that share
// one stub-owned plan (they differ only in processor count, so they are
// distinct compiles) ask the owner for it once.
func TestStorePlanFetchSingleflight(t *testing.T) {
	stub := newStubPeer(t)
	stub.delay = 300 * time.Millisecond
	clu := stubCluster(t, stub)
	_, ts := newTestServer(t, Config{Cluster: clu, Workers: 8})
	var base CompileRequest
	var key string
	for i := 0; ; i++ {
		base = CompileRequest{Source: fmt.Sprintf("%s/* unit %d */\n", daxpySrc, i), Options: tuneOpts()}
		if err := validateUnit(&base); err != nil {
			t.Fatal(err)
		}
		var err error
		if key, err = planKey(base, base.Options.driverOptions(nil)); err != nil {
			t.Fatal(err)
		}
		if clu.Owner(key) != nil {
			break
		}
	}
	stub.plant("/schedules/"+key, []byte(`{"schedules":[{"loop":{"proc":"main","line":18,"col":2},"schedule":{"vl":16,"unroll":1}}],`+
		`"decisions":null,"default_cycles":9,"tuned_cycles":1,"measured":1}`))

	var wg sync.WaitGroup
	codes := make([]int, 8)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := base
			req.Processors = 1 + i%4
			_, codes[i], _ = tryCompile(ts, req)
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d: status %d", i, code)
		}
	}
	if n := stub.count("GET /schedules/"); n != 1 {
		t.Errorf("%d GET /schedules/{key} for one plan, want 1", n)
	}
	if m := getMetrics(t, ts); m.Tune.Tunes != 0 {
		t.Errorf("tunes = %d, want 0: the owner's plan was not used", m.Tune.Tunes)
	}
}

// TestStoreCatalogOwnerOrderWalk: a catalog its ring owner lacks but a
// third node holds still resolves — a pinned kind's fetch walks the ring.
func TestStoreCatalogOwnerOrderWalk(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	raw := catalogOf(t, 0, 1)
	id := catalogID(t, raw)
	owner := tc.ownerIndex(t, id)
	holder, asker := (owner+1)%3, (owner+2)%3

	// A peer PUT stores without writing through, so only holder has it.
	req, _ := http.NewRequest(http.MethodPut, tc.servers[holder].URL+"/catalogs/"+id, bytes.NewReader(raw))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT /catalogs/{id}: %d", resp.StatusCode)
	}
	if resp, err := http.Get(tc.servers[owner].URL + "/catalogs/" + id); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("owner holds the catalog: %v %v", err, resp.StatusCode)
	}

	out, code := postCompile(t, tc.servers[asker], CompileRequest{
		Source:     callsCatalog(0),
		Options:    CompileOptions{Inline: true, Catalogs: []string{id}},
		Processors: 1,
	})
	if code != http.StatusOK || out.Report.Inline.CallsExpanded == 0 || out.Run.ExitCode != 0 {
		t.Fatalf("compile on the third node: status %d", code)
	}
	// The owner was asked first and missed; the holder answered. (The
	// compile's artifact lookup may add a miss at either.)
	for _, p := range getMetrics(t, tc.servers[asker]).Cluster.Peers {
		switch {
		case p.URL == tc.servers[owner].URL && (p.FetchHits != 0 || p.FetchMisses == 0):
			t.Errorf("owner: hits %d misses %d, want 0 and ≥ 1", p.FetchHits, p.FetchMisses)
		case p.URL == tc.servers[holder].URL && p.FetchHits != 1:
			t.Errorf("holder: hits %d, want 1", p.FetchHits)
		}
	}
}

// TestCacheGetMemoryHitAllocs guards the hit path's lookup: the (kind,
// key) map key is built on the stack.
func TestCacheGetMemoryHitAllocs(t *testing.T) {
	c, err := NewCache(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	c.Put(key, []byte(`{"key":"`+key+`"}`))
	if n := testing.AllocsPerRun(100, func() { c.Get(key) }); n != 0 {
		t.Errorf("a memory hit allocates %v times, want 0", n)
	}
}
