package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

func postBatch(t *testing.T, ts *httptest.Server, breq BatchRequest, clientID string) (BatchResponse, int) {
	t.Helper()
	body, err := json.Marshal(breq)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/compile/batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if clientID != "" {
		req.Header.Set("X-Client-ID", clientID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /compile/batch: %v", err)
	}
	defer resp.Body.Close()
	var out BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return out, resp.StatusCode
}

// TestBatchCompile compiles a translation set in one round-trip: two
// distinct units plus a duplicate. The duplicate must be served from
// cache (memory or by joining the in-flight compile), never compiled
// twice.
func TestBatchCompile(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	srcA := "int main(void) { return 0; }"
	srcB := daxpySrc
	out, code := postBatch(t, ts, BatchRequest{
		Sources: []string{srcA, srcB, srcA},
		Options: fullOpts(),
	}, "")
	if code != http.StatusOK {
		t.Fatalf("batch: %d", code)
	}
	if out.Units != 3 || out.OK != 3 || out.Failed != 0 {
		t.Fatalf("tallies: %+v", out)
	}
	if out.Compiled != 2 || out.CacheHits != 1 {
		t.Errorf("compiled=%d cache_hits=%d, want 2 fresh + 1 dedup", out.Compiled, out.CacheHits)
	}
	// Results come back in input order, units 0 and 2 with equal keys.
	for i, res := range out.Results {
		if res.Index != i || res.Status != http.StatusOK || res.Artifact == nil {
			t.Fatalf("result %d: %+v", i, res)
		}
	}
	if out.Results[0].Artifact.Key != out.Results[2].Artifact.Key {
		t.Error("identical units got different keys")
	}
	if out.Results[0].Artifact.Key == out.Results[1].Artifact.Key {
		t.Error("distinct units share a key")
	}

	m := getMetrics(t, ts)
	if m.Batch.Batches != 1 || m.Batch.Units != 3 {
		t.Errorf("batch counters: %+v", m.Batch)
	}
	// Each unit also lands in the compile counters.
	if m.Compiles.Total != 3 || m.Compiles.CacheMisses != 2 || m.Compiles.CacheHits != 1 {
		t.Errorf("compile counters: %+v", m.Compiles)
	}
}

// TestBatchUnitErrorIsIsolated: one broken unit fails alone; the rest
// of the set compiles.
func TestBatchUnitErrorIsIsolated(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	out, code := postBatch(t, ts, BatchRequest{
		Sources: []string{"int main(void) { return 0; }", "this is not C"},
	}, "")
	if code != http.StatusOK {
		t.Fatalf("batch: %d", code)
	}
	if out.OK != 1 || out.Failed != 1 {
		t.Fatalf("tallies: %+v", out)
	}
	if out.Results[1].Status != http.StatusUnprocessableEntity || out.Results[1].Error == "" {
		t.Errorf("broken unit: %+v", out.Results[1])
	}
}

func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if _, code := postBatch(t, ts, BatchRequest{}, ""); code != http.StatusBadRequest {
		t.Errorf("empty batch: %d", code)
	}
	srcs := make([]string, maxBatchUnits+1)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("int main(void){return %d;}", i)
	}
	if _, code := postBatch(t, ts, BatchRequest{Sources: srcs}, ""); code != http.StatusBadRequest {
		t.Errorf("oversize batch: %d", code)
	}
}

// TestRateLimitPerClient: each client gets its own token bucket; a
// client that exhausts its burst gets 429 with Retry-After while other
// clients are unaffected.
func TestRateLimitPerClient(t *testing.T) {
	// Refill is negligible within the test; the burst of 2 is the story.
	_, ts := newTestServer(t, Config{RatePerSec: 0.001, RateBurst: 2})
	compileAs := func(client string, n int) (int, http.Header, map[string]any) {
		body, _ := json.Marshal(CompileRequest{Source: fmt.Sprintf("int main(void) { return %d; }", n)})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/compile", bytes.NewReader(body))
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		var payload map[string]any
		json.NewDecoder(resp.Body).Decode(&payload)
		return resp.StatusCode, resp.Header, payload
	}

	for i := 0; i < 2; i++ {
		if code, _, _ := compileAs("alice", i); code != http.StatusOK {
			t.Fatalf("request %d within burst: %d", i, code)
		}
	}
	code, hdr, payload := compileAs("alice", 2)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over burst: %d, want 429", code)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After %q, want a positive integer", hdr.Get("Retry-After"))
	}
	if payload["client"] != "alice" || payload["retry_after_ms"] == nil {
		t.Errorf("429 body: %+v", payload)
	}
	// Another client is not punished for alice's flood.
	if code, _, _ := compileAs("bob", 3); code != http.StatusOK {
		t.Errorf("bob after alice's 429: %d", code)
	}

	m := getMetrics(t, ts)
	if m.Compiles.RateLimited != 1 {
		t.Errorf("rate_limited = %d, want 1", m.Compiles.RateLimited)
	}
}

// TestRateLimitChargesBatchPerUnit: a batch of N costs N tokens, so
// fairness cannot be bypassed by wrapping a flood in one request.
func TestRateLimitChargesBatchPerUnit(t *testing.T) {
	_, ts := newTestServer(t, Config{RatePerSec: 0.001, RateBurst: 2})
	srcs := []string{"int main(void){return 0;}", "int main(void){return 1;}", "int main(void){return 2;}"}
	if _, code := postBatch(t, ts, BatchRequest{Sources: srcs}, "carol"); code != http.StatusTooManyRequests {
		t.Errorf("3-unit batch against burst 2: %d, want 429", code)
	}
	// A batch that fits the burst is admitted.
	if out, code := postBatch(t, ts, BatchRequest{Sources: srcs[:2]}, "carol"); code != http.StatusOK || out.OK != 2 {
		t.Errorf("2-unit batch: %d %+v", code, out)
	}
}
