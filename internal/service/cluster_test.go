package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/driver"
)

// testCluster is an in-process N-node cluster: each node is a full
// Server behind its own httptest listener, with a cluster view of every
// listener URL. Handlers are swapped in after construction because the
// peer URLs must exist before service.New can build the ring.
type testCluster struct {
	nodes   []*Server
	servers []*httptest.Server
	clus    []*cluster.Cluster
}

func newTestCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) *testCluster {
	t.Helper()
	tc := &testCluster{
		nodes:   make([]*Server, n),
		servers: make([]*httptest.Server, n),
		clus:    make([]*cluster.Cluster, n),
	}
	handlers := make([]atomic.Value, n)
	urls := make([]string, n)
	for i := range tc.servers {
		i := i
		tc.servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h, _ := handlers[i].Load().(http.Handler)
			if h == nil {
				http.Error(w, "node starting", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(tc.servers[i].Close)
		urls[i] = tc.servers[i].URL
	}
	for i := range tc.nodes {
		clu, err := cluster.New(cluster.Config{
			Self:          urls[i],
			Peers:         urls,
			FetchTimeout:  2 * time.Second,
			ProbeInterval: -1, // tests drive ProbeOnce by hand
		})
		if err != nil {
			t.Fatalf("cluster.New node %d: %v", i, err)
		}
		t.Cleanup(clu.Close)
		cfg := Config{Cluster: clu}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New node %d: %v", i, err)
		}
		handlers[i].Store(s.Handler())
		tc.nodes[i] = s
		tc.clus[i] = clu
	}
	for _, clu := range tc.clus {
		clu.ProbeOnce()
	}
	return tc
}

// ownerIndex returns which node the ring says owns key. Every node
// computes the same answer; we ask node 0.
func (tc *testCluster) ownerIndex(t *testing.T, key string) int {
	t.Helper()
	owner := tc.clus[0].Owner(key)
	if owner == nil {
		return 0
	}
	for i, ts := range tc.servers {
		if ts.URL == owner.URL() {
			return i
		}
	}
	t.Fatalf("owner of %s is not a cluster member", key)
	return -1
}

// waitForArtifact polls a node's local cache until the write-through
// push for key lands.
func waitForArtifact(t *testing.T, s *Server, key string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, tier := s.cache.Get(key); tier != TierNone {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("artifact %s never reached the node", key)
}

// keyFor computes the cache key a request will get, exactly as the
// serving path does.
func keyFor(t *testing.T, req CompileRequest) string {
	t.Helper()
	if err := validateUnit(&req); err != nil {
		t.Fatalf("validate: %v", err)
	}
	key, err := requestKey(req, req.Options.driverOptions(nil))
	if err != nil {
		t.Fatalf("requestKey: %v", err)
	}
	return key
}

// TestClusterRemoteCacheHit is the tentpole's core promise: a source
// compiled anywhere in the cluster is a remote cache hit everywhere
// else, served by the ring owner without recompiling.
func TestClusterRemoteCacheHit(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	req := CompileRequest{Source: daxpySrc, Options: fullOpts()}

	first, code := postCompile(t, tc.servers[0], req)
	if code != http.StatusOK || first.Cached {
		t.Fatalf("first compile: %d cached=%v", code, first.Cached)
	}

	// The compiling node pushes the artifact to its ring owner
	// asynchronously; wait for it to land before querying elsewhere.
	ownerIdx := tc.ownerIndex(t, first.Key)
	waitForArtifact(t, tc.nodes[ownerIdx], first.Key)

	// Query a node that neither compiled nor owns the artifact: its
	// only way to answer without compiling is the remote tier.
	querier := 1
	if ownerIdx != 0 {
		querier = 3 - ownerIdx // the node that is neither 0 nor the owner
	}
	second, code := postCompile(t, tc.servers[querier], req)
	if code != http.StatusOK {
		t.Fatalf("second compile: %d", code)
	}
	if !second.Cached || second.CacheTier != TierRemote {
		t.Fatalf("cross-node request: cached=%v tier=%q, want remote hit", second.Cached, second.CacheTier)
	}
	if second.Key != first.Key {
		t.Errorf("keys differ across nodes: %s vs %s", first.Key, second.Key)
	}

	m := getMetrics(t, tc.servers[querier])
	if m.Compiles.RemoteHits != 1 {
		t.Errorf("remote_hits = %d, want 1", m.Compiles.RemoteHits)
	}
	if m.Cluster == nil || len(m.Cluster.Nodes) != 3 || !m.Cluster.Bootstrapped {
		t.Errorf("cluster snapshot: %+v", m.Cluster)
	}

	// The remote hit was promoted into local memory: the node answers
	// the next identical request itself.
	third, code := postCompile(t, tc.servers[querier], req)
	if code != http.StatusOK || third.CacheTier != TierMemory {
		t.Errorf("after promotion: %d tier=%q, want memory hit", code, third.CacheTier)
	}
}

// TestClusterPeerDeathDegradesToLocal kills the node that owns a key
// and asserts the rest of the cluster still answers: the remote lookup
// fails, the requester compiles locally, no request errors.
func TestClusterPeerDeathDegradesToLocal(t *testing.T) {
	tc := newTestCluster(t, 3, nil)

	// Find a source whose artifact is owned by a node other than 0, so
	// node 0's request must cross the wire.
	var req CompileRequest
	var ownerIdx int
	for i := 0; ; i++ {
		req = CompileRequest{Source: fmt.Sprintf("int main(void) { return %d; }", i)}
		if ownerIdx = tc.ownerIndex(t, keyFor(t, req)); ownerIdx != 0 {
			break
		}
	}

	tc.servers[ownerIdx].Close()

	out, code := postCompile(t, tc.servers[0], req)
	if code != http.StatusOK {
		t.Fatalf("compile with dead owner: %d", code)
	}
	if out.Cached {
		t.Errorf("artifact claims cached with the owner dead: tier=%q", out.CacheTier)
	}

	// The failure is visible in the peer counters, not in the response.
	m := getMetrics(t, tc.servers[0])
	var dead *cluster.PeerStatus
	for i := range m.Cluster.Peers {
		if m.Cluster.Peers[i].URL == tc.servers[ownerIdx].URL {
			dead = &m.Cluster.Peers[i]
		}
	}
	if dead == nil {
		t.Fatal("dead peer missing from snapshot")
	}
	if dead.FetchErrors == 0 && dead.FetchTimeouts == 0 && dead.BreakerDrops == 0 {
		t.Errorf("dead peer shows no failures: %+v", *dead)
	}

	// Repeat requests keep working (served from node 0's own cache now).
	again, code := postCompile(t, tc.servers[0], req)
	if code != http.StatusOK || !again.Cached {
		t.Errorf("repeat with dead owner: %d cached=%v", code, again.Cached)
	}
}

// TestClusterRejectsBadPeerArtifacts: what an owner answers to a fetch
// is validated like a PUT before it is cached and served. A confused,
// stale or older-versioned owner costs a local compile, never a wrong
// or malformed reply, and never a poisoned memory entry.
func TestClusterRejectsBadPeerArtifacts(t *testing.T) {
	// The owner is a stub: ready, accepts write-throughs, and answers
	// GET /cache/{key} with whatever the case under test planted.
	var mu sync.Mutex
	planted := map[string][]byte{}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key, isCache := strings.CutPrefix(r.URL.Path, "/cache/")
		if !isCache || r.Method != http.MethodGet {
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusNoContent)
			return
		}
		mu.Lock()
		blob, ok := planted[key]
		mu.Unlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(blob)
	}))
	defer stub.Close()

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
	defer clu.Close()
	clu.ProbeOnce()
	s, ts := newTestServer(t, Config{Cluster: clu})

	// stubOwned returns a fresh request whose key the stub owns.
	next := 0
	stubOwned := func() (CompileRequest, string) {
		for {
			req := CompileRequest{Source: fmt.Sprintf("int main(void) { return %d; }", next)}
			next++
			if key := keyFor(t, req); clu.Owner(key) != nil {
				return req, key
			}
		}
	}
	_, otherKey := stubOwned()

	cases := []struct {
		name string
		blob func(key string) []byte
	}{
		{"another key's artifact", func(string) []byte {
			b, _ := json.Marshal(artifact{Key: otherKey, Asm: "poison"})
			return b
		}},
		{"truncated JSON", func(key string) []byte {
			b, _ := json.Marshal(artifact{Key: key, Asm: "poison"})
			return b[:len(b)/2]
		}},
		{"old-shape blob", func(key string) []byte {
			b, _ := json.Marshal(CompileResponse{Key: key, Asm: "poison"})
			return b
		}},
	}
	for i, c := range cases {
		req, key := stubOwned()
		mu.Lock()
		planted[key] = c.blob(key)
		mu.Unlock()

		out := compileAt(t, c.name, ts.URL, req, false, TierNone)
		if out.Key != key || out.Report == nil || strings.Contains(out.Asm, "poison") {
			t.Errorf("%s: reply is not the local compile: key=%s asm=%q", c.name, out.Key, out.Asm)
		}
		if blob, tier := s.cache.Get(key); tier != TierMemory || checkArtifact(key, blob) != nil {
			t.Errorf("%s: memory holds tier=%q, check: %v", c.name, tier, checkArtifact(key, blob))
		}
		again := compileAt(t, c.name+", repeat", ts.URL, req, true, TierMemory)
		if again.Asm != out.Asm {
			t.Errorf("%s: the memory hit serves different code than the compile", c.name)
		}
		m := getMetrics(t, ts)
		if m.Cache.PeerRejects != int64(i+1) || m.Compiles.RemoteHits != 0 || m.Compiles.CacheMisses != int64(i+1) {
			t.Errorf("%s: peer_rejects=%d remote_hits=%d misses=%d, want %d, 0, %d",
				c.name, m.Cache.PeerRejects, m.Compiles.RemoteHits, m.Compiles.CacheMisses, i+1, i+1)
		}
	}

	// Control: the stub is really consulted — a well-formed artifact
	// under the right key is a remote hit.
	req, key := stubOwned()
	good, _ := json.Marshal(artifact{Key: key, Asm: "from the owner"})
	mu.Lock()
	planted[key] = good
	mu.Unlock()
	if out := compileAt(t, "well-formed artifact", ts.URL, req, true, TierRemote); out.Asm != "from the owner" {
		t.Errorf("remote hit served asm=%q", out.Asm)
	}
}

// TestClusterCatalogResolution uploads a §7 catalog to one node and
// compiles against its id on another: the second node fetches the
// catalog from its peers, verifies the fingerprint, and inlines.
func TestClusterCatalogResolution(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	var buf bytes.Buffer
	if err := driver.WriteCatalogFromSource(&buf, "float scale(float x, float a) { return x * a; }"); err != nil {
		t.Fatalf("build catalog: %v", err)
	}

	resp, err := http.Post(tc.servers[0].URL+"/catalogs?name=libscale", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("POST /catalogs: %v", err)
	}
	var up CatalogUploadResponse
	json.NewDecoder(resp.Body).Decode(&up)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %+v", resp.StatusCode, up)
	}

	src := `
float scale(float x, float a);
int main(void) {
	float r;
	r = scale(3.0f, 2.0f);
	if (r == 6.0f) return 0;
	return 1;
}
`
	// Node 2 has never seen this catalog; it resolves the id through
	// the cluster (from the owner, or node 0 which has the original).
	out, code := postCompile(t, tc.servers[2], CompileRequest{
		Source:     src,
		Options:    CompileOptions{Inline: true, Catalogs: []string{up.Catalog.ID}},
		Processors: 1,
	})
	if code != http.StatusOK {
		t.Fatalf("compile with peer catalog: %d", code)
	}
	if out.Report.Inline.CallsExpanded == 0 {
		t.Error("peer-fetched catalog was not inlined")
	}
	if out.Run == nil || out.Run.ExitCode != 0 {
		t.Errorf("run: %+v", out.Run)
	}
}

// TestReadyzGatesOnBootstrap: a cluster node is not ready until its
// first probe round completes, and /healthz stays 200 throughout.
func TestReadyzGatesOnBootstrap(t *testing.T) {
	peer := httptest.NewServer(http.NotFoundHandler())
	defer peer.Close()
	clu, err := cluster.New(cluster.Config{
		Self:          "http://self.invalid:1",
		Peers:         []string{peer.URL},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	_, ts := newTestServer(t, Config{Cluster: clu})

	check := func(path string, want int, wantStatus string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var h HealthResponse
		json.NewDecoder(resp.Body).Decode(&h)
		if resp.StatusCode != want || h.Status != wantStatus {
			t.Errorf("%s: %d %q, want %d %q", path, resp.StatusCode, h.Status, want, wantStatus)
		}
	}
	check("/readyz", http.StatusServiceUnavailable, "bootstrapping")
	check("/healthz", http.StatusOK, "ok")
	clu.ProbeOnce()
	check("/readyz", http.StatusOK, "ready")
}

// TestClusterRejectsBadPeerPlans: a tuned plan an owner answers a fetch
// with goes through the gate a PUT /schedules/{key} goes through before
// it is cached and compiled with. A plan the owner should never have
// held costs a local search — the reply is the one a lone node gives —
// and is neither stored nor counted as a remote hit.
func TestClusterRejectsBadPeerPlans(t *testing.T) {
	// The owner is a stub: ready, accepts write-throughs, has no
	// artifacts, and answers every GET /schedules/{key} with the planted
	// body.
	var mu sync.Mutex
	var planted []byte
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if !strings.HasPrefix(r.URL.Path, "/schedules/") {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		w.Write(planted)
	}))
	defer stub.Close()

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
	defer clu.Close()
	clu.ProbeOnce()
	s, ts := newTestServer(t, Config{Cluster: clu})
	_, lone := newTestServer(t, Config{})

	// stubOwned returns a fresh tuned request whose plan the stub owns.
	next := 0
	stubOwned := func() (CompileRequest, string) {
		for {
			req := CompileRequest{Source: fmt.Sprintf("%s/* unit %d */\n", daxpySrc, next), Options: tuneOpts(), Processors: 2}
			next++
			if err := validateUnit(&req); err != nil {
				t.Fatal(err)
			}
			key, err := planKey(req, req.Options.driverOptions(nil))
			if err != nil {
				t.Fatal(err)
			}
			if clu.Owner(key) != nil {
				return req, key
			}
		}
	}

	plan := func(sched string) []byte {
		return []byte(`{"schedules":[{"loop":{"proc":"main","line":18,"col":2},"schedule":` + sched +
			`}],"decisions":null,"default_cycles":9,"tuned_cycles":1,"measured":1}`)
	}
	good := plan(`{"vl":16,"unroll":1}`)
	cases := []struct {
		name string
		body []byte
	}{
		{"strip length out of machine range", plan(`{"vl":100000,"unroll":1}`)},
		{"unknown mask strategy", plan(`{"vl":32,"unroll":1,"mask_strategy":"diagonal"}`)},
		{"truncated JSON", good[:len(good)/2]},
	}
	for i, c := range cases {
		req, key := stubOwned()
		mu.Lock()
		planted = c.body
		mu.Unlock()

		out, code := postCompile(t, ts, req)
		want, _ := postCompile(t, lone, req)
		if code != http.StatusOK || out.Run == nil || out.Asm != want.Asm || out.Run.Cycles != want.Run.Cycles ||
			out.Run.ExitCode != want.Run.ExitCode || len(schedSelected(out)) != len(schedSelected(want)) {
			t.Errorf("%s: status %d, reply is not a lone node's tuned compile", c.name, code)
		}
		held, ok := s.schedules.get(key)
		if !ok || held.Measured == 0 || held.TunedCycles == 1 {
			t.Errorf("%s: schedule cache holds %+v, want the plan searched here", c.name, held)
		}
		m := getMetrics(t, ts)
		if m.Cache.PeerRejects != int64(i+1) || m.Tune.PlanRemoteHits != 0 || m.Tune.Tunes != int64(i+1) {
			t.Errorf("%s: peer_rejects=%d plan_remote_hits=%d tunes=%d, want %d, 0, %d",
				c.name, m.Cache.PeerRejects, m.Tune.PlanRemoteHits, m.Tune.Tunes, i+1, i+1)
		}
	}

	// Control: the stub is really consulted — a plan that passes the
	// gate is adopted without a search.
	req, key := stubOwned()
	mu.Lock()
	planted = good
	mu.Unlock()
	if _, code := postCompile(t, ts, req); code != http.StatusOK {
		t.Fatalf("well-formed plan: status %d", code)
	}
	m := getMetrics(t, ts)
	if held, ok := s.schedules.get(key); !ok || held.TunedCycles != 1 || m.Tune.PlanRemoteHits != 1 || m.Tune.Tunes != int64(len(cases)) {
		t.Errorf("well-formed plan: held=%+v plan_remote_hits=%d tunes=%d", held, m.Tune.PlanRemoteHits, m.Tune.Tunes)
	}
}

// TestPeerTierEndpoints drives the owner-side storage API directly.
func TestPeerTierEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()
	key := keyFor(t, CompileRequest{Source: "int main(void) { return 7; }"})

	do := func(method, path string, body []byte) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Malformed keys never reach storage.
	if resp := do("GET", "/cache/not-a-key", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed key: %d", resp.StatusCode)
	}
	// A miss is 404, not an error.
	if resp := do("GET", "/cache/"+key, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("miss: %d", resp.StatusCode)
	}
	// A write-through must carry the artifact it claims, in the stored
	// shape and nothing after it: these bytes are served unread from now
	// on, so each malformation is refused here.
	valid, _ := json.Marshal(artifact{Key: key, Asm: "ret"})
	other, _ := json.Marshal(artifact{Key: "0000000000000000000000000000000000000000000000000000000000000000"})
	oldShape, _ := json.Marshal(CompileResponse{Key: key, Asm: "ret"})
	rejected := map[string][]byte{
		"mismatched key": other,
		"garbage":        []byte("not json"),
		"old shape":      oldShape,
		"trailing bytes": append(append([]byte{}, valid...), '\n'),
		"truncated":      valid[:len(valid)-1],
	}
	for name, body := range rejected {
		if resp := do("PUT", "/cache/"+key, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s PUT: %d, want 400", name, resp.StatusCode)
		}
	}
	if resp := do("PUT", "/cache/not-a-key", valid); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed key PUT: %d", resp.StatusCode)
	}
	if resp := do("GET", "/cache/"+key, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("a rejected PUT was cached: GET %d", resp.StatusCode)
	}
	if m := getMetrics(t, ts); m.Cache.PeerRejects != int64(len(rejected))+1 {
		t.Errorf("peer_rejects = %d, want %d", m.Cache.PeerRejects, len(rejected)+1)
	}
	// A valid write-through round-trips byte for byte.
	if resp := do("PUT", "/cache/"+key, valid); resp.StatusCode != http.StatusNoContent {
		t.Errorf("valid PUT: %d", resp.StatusCode)
	}
	resp := do("GET", "/cache/"+key, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache-Tier") != TierMemory {
		t.Errorf("GET after PUT: %d tier=%q", resp.StatusCode, resp.Header.Get("X-Cache-Tier"))
	}
	if got, err := io.ReadAll(resp.Body); err != nil || !bytes.Equal(got, valid) {
		t.Errorf("round-trip: %v %q", err, got)
	}
	// Schedule plans: miss is 404, catalogs likewise.
	if resp := do("GET", "/schedules/"+key, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("plan miss: %d", resp.StatusCode)
	}
	// A plan write-through is validated before it can enter the cache: a
	// set whose schedule carries an unknown mask strategy (a corrupt or
	// newer-versioned peer) is rejected with 400, and the bad plan is not
	// served back.
	badPlan := []byte(`{"schedules":[{"loop":{"proc":"clip","line":7,"col":2},` +
		`"schedule":{"vl":32,"unroll":1,"mask_strategy":"diagonal"}}],"decisions":null,` +
		`"default_cycles":0,"tuned_cycles":0,"measured":0}`)
	if resp := do("PUT", "/schedules/"+key, badPlan); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown mask strategy PUT: %d, want 400", resp.StatusCode)
	}
	if resp := do("GET", "/schedules/"+key, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("rejected plan was cached: GET %d", resp.StatusCode)
	}
	if m := getMetrics(t, ts); m.Cache.PeerRejects != int64(len(rejected))+2 {
		t.Errorf("peer_rejects = %d after a rejected plan, want %d", m.Cache.PeerRejects, len(rejected)+2)
	}
	// The same plan with a known strategy is accepted and round-trips.
	goodPlan := bytes.Replace(badPlan, []byte("diagonal"), []byte("branchy-serial"), 1)
	if resp := do("PUT", "/schedules/"+key, goodPlan); resp.StatusCode != http.StatusNoContent {
		t.Errorf("valid plan PUT: %d", resp.StatusCode)
	}
	if resp := do("GET", "/schedules/"+key, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("plan after PUT: %d", resp.StatusCode)
	}
	if resp := do("GET", "/catalogs/deadbeef", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed catalog id: %d", resp.StatusCode)
	}
	if resp := do("GET", "/catalogs/"+key, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("catalog miss: %d", resp.StatusCode)
	}
}
