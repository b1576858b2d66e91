package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/driver"
)

const daxpySrc = `
void daxpy(float *x, float *y, float *z, float alpha, int n)
{
	int i;
	for (i = 0; i < n; i++)
		x[i] = y[i] + alpha * z[i];
}

int main(void)
{
	float a[64], b[64], c[64];
	int i;
	for (i = 0; i < 64; i++) {
		b[i] = i;
		c[i] = 1;
	}
	daxpy(a, b, c, 2.0, 64);
	return 0;
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postCompile(t *testing.T, ts *httptest.Server, req CompileRequest) (CompileResponse, int) {
	t.Helper()
	out, code, err := tryCompile(ts, req)
	if err != nil {
		t.Fatal(err)
	}
	return out, code
}

// tryCompile is postCompile without the test plumbing, safe to call from
// helper goroutines.
func tryCompile(ts *httptest.Server, req CompileRequest) (CompileResponse, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return CompileResponse{}, 0, fmt.Errorf("marshal: %w", err)
	}
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return CompileResponse{}, 0, fmt.Errorf("POST /compile: %w", err)
	}
	defer resp.Body.Close()
	var out CompileResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return CompileResponse{}, resp.StatusCode, fmt.Errorf("decode: %w", err)
		}
	}
	return out, resp.StatusCode, nil
}

func getMetrics(t *testing.T, ts *httptest.Server) MetricsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return m
}

func fullOpts() CompileOptions {
	return CompileOptions{Inline: true, Vectorize: true, Parallelize: true}
}

func TestCompileBasic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	out, code := postCompile(t, ts, CompileRequest{Source: daxpySrc, Options: fullOpts()})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.Cached {
		t.Error("first compile reported cached")
	}
	if out.Key == "" || out.IL == "" || out.Asm == "" || out.Report == nil {
		t.Errorf("incomplete artifact: key=%q il=%d asm=%d report=%v",
			out.Key, len(out.IL), len(out.Asm), out.Report != nil)
	}
	if out.Report.Vector.VectorStmts == 0 {
		t.Error("daxpy did not vectorize")
	}
}

// TestCompileCacheHit is the tentpole's acceptance check: the second
// identical request is served from cache — the hit counter increments
// and, per the aggregated pass totals in /metrics, no pipeline pass ran.
func TestCompileCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := CompileRequest{Source: daxpySrc, Options: fullOpts()}

	first, code := postCompile(t, ts, req)
	if code != http.StatusOK || first.Cached {
		t.Fatalf("first: status %d cached %v", code, first.Cached)
	}
	m1 := getMetrics(t, ts)
	if m1.Compiles.CacheMisses != 1 || m1.Compiles.CacheHits != 0 {
		t.Fatalf("after first: %+v", m1.Compiles)
	}
	if len(m1.Passes) == 0 || m1.Passes["vectorize"].Runs != 1 {
		t.Fatalf("pass totals missing after first compile: %+v", m1.Passes)
	}

	second, code := postCompile(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("second: status %d", code)
	}
	if !second.Cached || second.CacheTier != TierMemory {
		t.Fatalf("second not served from memory cache: cached=%v tier=%q", second.Cached, second.CacheTier)
	}
	if second.Key != first.Key || second.IL != first.IL || second.Asm != first.Asm {
		t.Error("cached artifact differs from the original")
	}

	m2 := getMetrics(t, ts)
	if m2.Compiles.CacheHits != 1 || m2.Compiles.MemoryHits != 1 || m2.Compiles.CacheMisses != 1 {
		t.Fatalf("after second: %+v", m2.Compiles)
	}
	// No pass ran for the hit: cumulative per-pass time and run counts
	// are unchanged.
	for name, tot := range m2.Passes {
		if prev := m1.Passes[name]; tot != prev {
			t.Errorf("pass %s totals moved on a cache hit: %+v -> %+v", name, prev, tot)
		}
	}
}

func TestCompileOptionsAffectKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a, _ := postCompile(t, ts, CompileRequest{Source: daxpySrc, Options: CompileOptions{Vectorize: true}})
	b, _ := postCompile(t, ts, CompileRequest{Source: daxpySrc, Options: CompileOptions{}})
	if a.Key == b.Key {
		t.Error("vectorize flag did not change the cache key")
	}
	if b.Cached {
		t.Error("different options served from cache")
	}
}

// TestOptLevelZeroIsPlainO0: titand defaults strength reduction on, and
// {"opt_level": 0} must still compile what titancc -O0 compiles, plain
// scalar code with no scheduler, not an -O0 build scheduled as if §6 ran.
func TestOptLevelZeroIsPlainO0(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	zero := 0
	out, code := postCompile(t, ts, CompileRequest{Source: daxpySrc, Options: CompileOptions{OptLevel: &zero}})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	res, err := driver.Compile(daxpySrc, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := driver.Disassemble(res); out.Asm != want {
		t.Errorf("opt_level 0 assembly differs from -O0's:\n%s\nwant\n%s", out.Asm, want)
	}
}

func TestCompileRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	out, code := postCompile(t, ts, CompileRequest{Source: daxpySrc, Options: fullOpts(), Processors: 2})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.Run == nil || out.Run.Processors != 2 || out.Run.ExitCode != 0 || out.Run.Cycles == 0 {
		t.Fatalf("run result: %+v", out.Run)
	}
	if out.Run.HostNanos <= 0 {
		t.Errorf("HostNanos = %d, want > 0", out.Run.HostNanos)
	}
	// Same source, no run: distinct artifact.
	plain, _ := postCompile(t, ts, CompileRequest{Source: daxpySrc, Options: fullOpts()})
	if plain.Key == out.Key {
		t.Error("run spec did not change the cache key")
	}
}

func TestCompileRejectsBadProcessors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, p := range []int{-1, 5, 99} {
		_, code := postCompile(t, ts, CompileRequest{Source: daxpySrc, Processors: p})
		if code != http.StatusBadRequest {
			t.Errorf("processors=%d: status %d, want 400", p, code)
		}
	}
	m := getMetrics(t, ts)
	if m.Compiles.CacheMisses != 0 {
		t.Error("invalid requests reached the pipeline")
	}
}

func TestCompileErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if _, code := postCompile(t, ts, CompileRequest{Source: ""}); code != http.StatusBadRequest {
		t.Errorf("empty source: status %d", code)
	}
	if _, code := postCompile(t, ts, CompileRequest{Source: "int main( {"}); code != http.StatusUnprocessableEntity {
		t.Errorf("syntax error: status %d", code)
	}
	if _, code := postCompile(t, ts, CompileRequest{Source: daxpySrc, Processors: 1, Entry: "nosuch"}); code != http.StatusUnprocessableEntity {
		t.Errorf("missing entry: status %d", code)
	}
	m := getMetrics(t, ts)
	if m.Compiles.Errors != 2 {
		t.Errorf("errors counter: %+v", m.Compiles)
	}
	if _, code := postCompile(t, ts, CompileRequest{Source: strings.Repeat(" ", maxBodyBytes)}); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d", code)
	}
}

func TestCatalogUploadListCompile(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var buf bytes.Buffer
	if err := driver.WriteCatalogFromSource(&buf, "float scale(float x, float a) { return x * a; }"); err != nil {
		t.Fatalf("build catalog: %v", err)
	}
	raw := buf.Bytes()

	resp, err := http.Post(ts.URL+"/catalogs?name=libscale", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST /catalogs: %v", err)
	}
	var up CatalogUploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || !up.Created || up.Catalog.ID == "" {
		t.Fatalf("upload: status %d %+v", resp.StatusCode, up)
	}
	if len(up.Catalog.Procs) != 1 || up.Catalog.Procs[0] != "scale" {
		t.Fatalf("catalog procs: %+v", up.Catalog.Procs)
	}

	// Idempotent re-upload.
	resp2, err := http.Post(ts.URL+"/catalogs", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("re-POST: %v", err)
	}
	var up2 CatalogUploadResponse
	json.NewDecoder(resp2.Body).Decode(&up2)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || up2.Created || up2.Catalog.ID != up.Catalog.ID {
		t.Fatalf("re-upload: status %d %+v", resp2.StatusCode, up2)
	}

	// List.
	lresp, err := http.Get(ts.URL + "/catalogs")
	if err != nil {
		t.Fatalf("GET /catalogs: %v", err)
	}
	var list CatalogListResponse
	json.NewDecoder(lresp.Body).Decode(&list)
	lresp.Body.Close()
	if list.Count != 1 || list.Catalogs[0].ID != up.Catalog.ID || list.Catalogs[0].Name != "libscale" {
		t.Fatalf("list: %+v", list)
	}

	// Compile against the registered catalog: the call inlines.
	src := `
float scale(float x, float a);
int main(void) {
	float r;
	r = scale(3.0f, 2.0f);
	if (r == 6.0f) return 0;
	return 1;
}
`
	out, code := postCompile(t, ts, CompileRequest{
		Source:     src,
		Options:    CompileOptions{Inline: true, Catalogs: []string{up.Catalog.ID}},
		Processors: 1,
	})
	if code != http.StatusOK {
		t.Fatalf("compile with catalog: status %d", code)
	}
	if out.Report.Inline.CallsExpanded == 0 {
		t.Error("catalog procedure was not inlined")
	}
	if out.Run == nil || out.Run.ExitCode != 0 {
		t.Errorf("run: %+v", out.Run)
	}

	// Unknown catalog id is a client error that names the id.
	_, code = postCompile(t, ts, CompileRequest{
		Source:  src,
		Options: CompileOptions{Inline: true, Catalogs: []string{"deadbeef"}},
	})
	if code != http.StatusBadRequest {
		t.Errorf("unknown catalog: status %d", code)
	}
}

func TestCatalogUploadRejectsGarbage(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/catalogs", "application/octet-stream", strings.NewReader("not a catalog"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var e map[string]string
	json.NewDecoder(resp.Body).Decode(&e)
	if !strings.Contains(e["error"], "catalog") {
		t.Errorf("error not descriptive: %q", e["error"])
	}
}

// TestCatalogUploadRejectsLaterForms: a catalog holds front-end IL, so
// one whose procedure carries a do parallel is a bad request. The catalog
// is the inline package's seed: chain(a, n), a[i] = a[i-1] + 1, with its
// loop written as a do parallel, which would run the chain's iterations
// at once on every processor.
func TestCatalogUploadRejectsLaterForms(t *testing.T) {
	seed, err := os.ReadFile("../inline/testdata/fuzz/FuzzReadCatalog/later-form-DoParallel")
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(seed)), "[]byte(")
	raw, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("seed literal: %v", err)
	}
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/catalogs", "application/octet-stream", strings.NewReader(raw))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var e map[string]string
	json.NewDecoder(resp.Body).Decode(&e)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e["error"], "DoParallel is not front-end IL") {
		t.Fatalf("status %d, error %q: want 400 naming the do parallel", resp.StatusCode, e["error"])
	}
}

// TestConcurrentMixedRequests is the tentpole's concurrency acceptance
// check: ≥16 goroutines firing overlapping identical and distinct
// requests, run under -race in CI. Every request must succeed and the
// counters must reconcile: each distinct unit compiled at most... exactly
// once per distinct key, everything else served as a hit or an in-flight
// join.
func TestConcurrentMixedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256})
	const goroutines = 24
	// 6 distinct translation units; goroutine i hammers unit i%6, so
	// each unit sees 4 overlapping identical requests.
	srcs := make([]string, 6)
	for i := range srcs {
		srcs[i] = fmt.Sprintf(`
int work%d(int n) { int i; int s; s = %d; for (i = 0; i < n; i++) s = s + i * %d; return s; }
int main(void) { return work%d(16) & 1; }
`, i, i, i+1, i)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// g%6 picks the unit, g/6 picks the processor count, so every
			// unit is requested on both 1 and 2 processors.
			req := CompileRequest{Source: srcs[g%len(srcs)], Options: fullOpts(), Processors: 1 + (g/6)%2}
			for rep := 0; rep < 2; rep++ {
				out, code, err := tryCompile(ts, req)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d rep %d: %w", g, rep, err)
					return
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d rep %d: status %d", g, rep, code)
					return
				}
				if out.Run == nil || out.IL == "" {
					errs <- fmt.Errorf("goroutine %d rep %d: incomplete artifact", g, rep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := getMetrics(t, ts)
	total := m.Compiles.CacheHits + m.Compiles.CacheMisses
	if m.Compiles.Total != total || total != goroutines*2 {
		t.Errorf("counters do not reconcile: %+v", m.Compiles)
	}
	// 6 units × 2 processor counts = 12 distinct keys; dedupe and the
	// cache must keep real compiles at exactly that.
	if m.Compiles.CacheMisses != 12 {
		t.Errorf("expected exactly 12 real compiles, got %d (%+v)", m.Compiles.CacheMisses, m.Compiles)
	}
	if m.Compiles.InFlight != 0 {
		t.Errorf("in-flight gauge did not return to zero: %+v", m.Compiles)
	}
	if m.Latency.Count != goroutines*2 || m.Latency.MaxNS < m.Latency.MinNS {
		t.Errorf("latency summary: %+v", m.Latency)
	}
}

// TestDrainWaitsForInflightCompiles: a compile admitted before shutdown
// finishes and lands in the cache before Drain returns, even if its
// requester already timed out (the 504 path).
func TestDrainWaitsForInflightCompiles(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Timeout: 50 * time.Millisecond})
	release := make(chan struct{})
	started := make(chan string, 1)
	s.compileHook = func(key string) {
		started <- key
		<-release
	}

	go tryCompile(ts, CompileRequest{Source: daxpySrc, Options: fullOpts()})
	var key string
	select {
	case key = <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("compile never started")
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned while a compile was in flight: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned after the compile finished")
	}
	if _, tier := s.cache.Get(key); tier == TierNone {
		t.Error("drained compile did not publish to the cache")
	}

	// The drain shows on readiness (route new work elsewhere) but not
	// on liveness (do not restart a draining process).
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	json.NewDecoder(resp.Body).Decode(&h)
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Errorf("readyz during drain: %d %+v", resp.StatusCode, h)
	}
	live, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer live.Body.Close()
	if live.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain: %d, want 200 (liveness is not readiness)", live.StatusCode)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Timeout: 5 * time.Second})
	release := make(chan struct{})
	started := make(chan string, 4)
	s.compileHook = func(key string) {
		started <- key
		<-release
	}
	defer close(release)

	// Occupy the worker, then the one queue slot, with distinct keys.
	statuses := make(chan int, 3)
	for i := 0; i < 2; i++ {
		go func(i int) {
			src := fmt.Sprintf("int main(void) { return %d; }", i)
			_, code, _ := tryCompile(ts, CompileRequest{Source: src})
			statuses <- code
		}(i)
	}
	<-started // worker busy; the second request holds the queue slot
	// Admission is the leader goroutine taking the queue slot, so give
	// the second request a moment to get there.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queueSem) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(s.queueSem) != 2 {
		t.Fatalf("queue not saturated: %d", len(s.queueSem))
	}

	body, _ := json.Marshal(CompileRequest{Source: "int main(void) { return 2; }"})
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /compile: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload status %d, want 503", resp.StatusCode)
	}
	// The 503 tells the client when and why: a Retry-After estimate and
	// a body naming the queue state it hit.
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("queue-full 503 missing Retry-After header")
	}
	var payload struct {
		Error        string `json:"error"`
		QueueDepth   int    `json:"queue_depth"`
		Queued       int    `json:"queued"`
		Workers      int    `json:"workers"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("decode 503 body: %v", err)
	}
	if payload.QueueDepth != 1 || payload.Workers != 1 || payload.RetryAfterMS < 1 {
		t.Errorf("503 body: %+v", payload)
	}
	m := getMetrics(t, ts)
	if m.Compiles.Rejected != 1 {
		t.Errorf("rejected counter: %+v", m.Compiles)
	}
}

func TestHealthzAndReadyz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Errorf("healthz: %d %+v", resp.StatusCode, h)
	}
	// A single-node server (nil cluster) is born ready.
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer rresp.Body.Close()
	var rh HealthResponse
	if err := json.NewDecoder(rresp.Body).Decode(&rh); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rresp.StatusCode != http.StatusOK || rh.Status != "ready" {
		t.Errorf("readyz: %d %+v", rresp.StatusCode, rh)
	}
}

func TestMethodDiscipline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for path, method := range map[string]string{"/compile": "GET", "/metrics": "POST", "/catalogs": "DELETE"} {
		req, _ := http.NewRequest(method, ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", method, path, resp.StatusCode)
		}
	}
}
