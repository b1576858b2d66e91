package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestCompilePanicIsA500: a compile that panics answers 500 naming the
// unit's key, to its leader and to a request joined on its flight, long
// before the server timeout. Both count in compiles.errors and
// compiles.panics, and the next request for the unit compiles normally.
func TestCompilePanicIsA500(t *testing.T) {
	s, ts := newTestServer(t, Config{Timeout: time.Minute})
	req := CompileRequest{Source: daxpySrc, Options: fullOpts()}
	key := keyFor(t, req)
	started, release := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	s.compileHook = func(string) {
		if armed.CompareAndSwap(true, false) {
			close(started)
			<-release
			panic("compiler bug")
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		code int
		body string
		err  error
	}
	replies := make(chan reply, 2)
	post := func() {
		resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			replies <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		replies <- reply{resp.StatusCode, string(raw), err}
	}
	go post()
	<-started
	go post()
	// The joiner is inside serveUnit once the gauge reads 2; the grace
	// period covers its few microseconds from there to the flight table.
	for getMetrics(t, ts).Compiles.InFlight < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)

	deadline := time.After(10 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case r := <-replies:
			if r.err != nil || r.code != http.StatusInternalServerError || !strings.Contains(r.body, key) {
				t.Errorf("reply %d: %d %q %v, want a 500 naming key %s", i, r.code, r.body, r.err, key)
			}
		case <-deadline:
			t.Fatal("a request on the panicked flight is still waiting")
		}
	}
	if m := getMetrics(t, ts).Compiles; m.Panics != 2 || m.Errors != 2 {
		t.Errorf("panics=%d errors=%d, want 2 and 2", m.Panics, m.Errors)
	}
	if out, code := postCompile(t, ts, req); code != http.StatusOK || out.Cached || out.Key != key {
		t.Errorf("request after the panic: %d cached=%v key=%s", code, out.Cached, out.Key)
	}
}

// TestBatchUnitPanic: in a batch, the unit whose compile panics is a 500
// and the others are served normally.
func TestBatchUnitPanic(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	bad := keyFor(t, CompileRequest{Source: daxpySrc, Options: fullOpts()})
	s.compileHook = func(key string) {
		if key == bad {
			panic("compiler bug")
		}
	}
	_, raw := postRaw(t, ts.URL+"/compile/batch", BatchRequest{
		Sources: []string{"int main(void) { return 1; }", daxpySrc, "int main(void) { return 2; }"},
		Options: fullOpts(),
	})
	var out BatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	for i, res := range out.Results {
		want := http.StatusOK
		if i == 1 {
			want = http.StatusInternalServerError
		}
		if res.Status != want || (want == http.StatusOK) != (res.Artifact != nil) {
			t.Errorf("unit %d: status %d artifact=%v error=%q, want %d", i, res.Status, res.Artifact != nil, res.Error, want)
		}
	}
	if !strings.Contains(out.Results[1].Error, bad) {
		t.Errorf("panicked unit's error %q does not name its key", out.Results[1].Error)
	}
	if out.OK != 2 || out.Failed != 1 {
		t.Errorf("tallies: %+v", out.BatchTally)
	}
}
