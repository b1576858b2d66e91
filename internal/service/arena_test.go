package service

import (
	"net/http"
	"testing"

	"repro/internal/il"
)

// TestCompileReleasesArenas: the compile path must free the compile's IL
// arenas once the artifact blob is encoded, and /metrics must export the
// process-wide gauge. After the request completes, arena_bytes_live is
// back at the pre-request baseline — a compile's arenas, and those of
// every candidate a tuned compile measures, do not outlive its artifact.
func TestCompileReleasesArenas(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	before := il.ArenaBytesLive()

	out, code := postCompile(t, ts, CompileRequest{Source: daxpySrc, Options: fullOpts(), Processors: 2})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.IL == "" || out.Asm == "" || out.Run == nil {
		t.Fatalf("incomplete artifact: il=%d asm=%d run=%v", len(out.IL), len(out.Asm), out.Run != nil)
	}

	m := getMetrics(t, ts)
	if m.ArenaBytesLive != before {
		t.Errorf("arena_bytes_live = %d after compile, want baseline %d (leaked %d bytes)",
			m.ArenaBytesLive, before, m.ArenaBytesLive-before)
	}

	// A tuned compile clones the IL once per candidate, and every clone
	// fills its own arenas through the tail passes; all of them must be
	// released too.
	tuned := fullOpts()
	tuned.Tune = true
	if _, code := postCompile(t, ts, CompileRequest{Source: daxpySrc, Options: tuned, Processors: 2}); code != http.StatusOK {
		t.Fatalf("tuned compile: status %d", code)
	}
	if got := getMetrics(t, ts).ArenaBytesLive; got != before {
		t.Errorf("arena_bytes_live = %d after tuned compile, want baseline %d (leaked %d bytes)",
			got, before, got-before)
	}

	// A failing compile (front-end error) allocates no procedures and must
	// not move the gauge either.
	if _, code := postCompile(t, ts, CompileRequest{Source: "int main(void) { return ; }", Options: fullOpts()}); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad source: status %d", code)
	}
	if got := il.ArenaBytesLive(); got != before {
		t.Errorf("arena_bytes_live = %d after failed compile, want %d", got, before)
	}
}
