package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestArtifactMirrorsCompileResponse: the stored artifact is the head
// of the reply, field for field. A field added to one and not the other
// would either never be stored or never be served.
func TestArtifactMirrorsCompileResponse(t *testing.T) {
	art, resp := reflect.TypeOf(artifact{}), reflect.TypeOf(CompileResponse{})
	if got, want := resp.NumField()-art.NumField(), 3; got != want {
		t.Fatalf("CompileResponse has %d fields past the artifact's, want the %d stamped ones", got, want)
	}
	for i := 0; i < art.NumField(); i++ {
		a, r := art.Field(i), resp.Field(i)
		if a.Name != r.Name || a.Type != r.Type || a.Tag != r.Tag {
			t.Errorf("field %d: artifact has %s %s `%s`, CompileResponse has %s %s `%s`",
				i, a.Name, a.Type, a.Tag, r.Name, r.Type, r.Tag)
		}
	}
}

// postRaw posts body and returns the undecoded reply.
func postRaw(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	reqBody, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, raw)
	}
	return resp, raw
}

// assertTypedEncoding decodes raw strictly into v (a pointer) and
// requires json.Encoder's output for the decoded value to be raw, byte
// for byte: the reply is what the typed encoder would have written.
func assertTypedEncoding(t *testing.T, what string, raw []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: decode: %v", what, err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatalf("%s: re-encode: %v", what, err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Errorf("%s: body differs from the typed encoding\n got: …%q\nwant: …%q", what, tail(raw), tail(want.Bytes()))
	}
}

func tail(b []byte) []byte {
	if len(b) > 120 {
		return b[len(b)-120:]
	}
	return b
}

// compileAt posts req, checks the wire form, and requires the given
// provenance.
func compileAt(t *testing.T, what, url string, req CompileRequest, cached bool, tier string) CompileResponse {
	t.Helper()
	resp, raw := postRaw(t, url+"/compile", req)
	var out CompileResponse
	assertTypedEncoding(t, what, raw, &out)
	if resp.ContentLength != int64(len(raw)) {
		t.Errorf("%s: Content-Length %d, body is %d bytes", what, resp.ContentLength, len(raw))
	}
	if out.Cached != cached || out.CacheTier != tier {
		t.Fatalf("%s: cached=%v tier=%q, want cached=%v tier=%q", what, out.Cached, out.CacheTier, cached, tier)
	}
	if (out.Run != nil) != (req.Processors > 0) {
		t.Errorf("%s: run present = %v for processors = %d", what, out.Run != nil, req.Processors)
	}
	return out
}

// TestWireCompatibility: a reply spliced from stored bytes is what
// json.Encoder writes for the CompileResponse it decodes to — same
// field order, omitempty, escaping, trailing newline — at every
// provenance, with and without a run, and inside a batch.
func TestWireCompatibility(t *testing.T) {
	// The "<&>" in the source reaches the artifact through the output
	// string, so the HTML-escaping of the stored bytes is exercised too.
	const src = `
int printf(char *fmt, ...);
float a[64], b[64];
int main(void)
{
	int i;
	for (i = 0; i < 64; i++)
		a[i] = b[i] + 1;
	printf("<&>\n");
	return 0;
}
`
	for _, procs := range []int{0, 2} {
		req := CompileRequest{Source: src, Options: fullOpts(), Processors: procs}
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			dir := t.TempDir()
			_, ts := newTestServer(t, Config{CacheDir: dir})
			first := compileAt(t, "compiled", ts.URL, req, false, TierNone)
			if procs > 0 && !strings.Contains(first.Run.Output, "<&>") {
				t.Fatalf("run output %q lost the escaped characters", first.Run.Output)
			}
			compileAt(t, "memory", ts.URL, req, true, TierMemory)

			_, restarted := newTestServer(t, Config{CacheDir: dir})
			compileAt(t, "disk", restarted.URL, req, true, TierDisk)

			// In flight: hold the leader in the worker, let a second
			// identical request join it, then release both.
			s, held := newTestServer(t, Config{})
			started, release := make(chan struct{}), make(chan struct{})
			s.compileHook = func(string) {
				close(started)
				<-release
			}
			leader := make(chan CompileResponse, 1)
			go func() {
				out, _, _ := tryCompile(held, req)
				leader <- out
			}()
			<-started
			go func() {
				// The joiner is inside serveUnit once the gauge reads 2;
				// the grace period covers its few microseconds from there
				// to the flight table.
				for getMetrics(t, held).Compiles.InFlight < 2 {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(50 * time.Millisecond)
				close(release)
			}()
			compileAt(t, "inflight", held.URL, req, true, TierInflight)
			if out := <-leader; out.Key != first.Key || out.Cached {
				t.Errorf("leader of the joined compile: key=%s cached=%v", out.Key, out.Cached)
			}

			// Remote: compile on the key's owner, ask the other node.
			tc := newTestCluster(t, 2, nil)
			owner := tc.ownerIndex(t, first.Key)
			compileAt(t, "owner compile", tc.servers[owner].URL, req, false, TierNone)
			compileAt(t, "remote", tc.servers[1-owner].URL, req, true, TierRemote)
		})
	}

	t.Run("batch", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		_, raw := postRaw(t, ts.URL+"/compile/batch", BatchRequest{
			Sources:    []string{src, daxpySrc, src, "int main(void) { return }"},
			Options:    fullOpts(),
			Processors: 1,
		})
		var out BatchResponse
		assertTypedEncoding(t, "batch", raw, &out)
		if out.OK != 3 || out.Failed != 1 || out.Compiled != 2 || out.CacheHits != 1 {
			t.Errorf("tallies: %+v", out.BatchTally)
		}
		for i, res := range out.Results[:3] {
			if res.Artifact == nil || res.Artifact.Run == nil || res.Artifact.ElapsedNS <= 0 {
				t.Errorf("unit %d: %+v", i, res)
			}
		}
		// Units 0 and 2 are the same source: whichever ran first
		// compiled, the other was served by it.
		if a, b := out.Results[0].Artifact, out.Results[2].Artifact; a.Key != b.Key || a.Cached == b.Cached {
			t.Errorf("duplicate units: keys %s/%s cached %v/%v", a.Key, b.Key, a.Cached, b.Cached)
		}
	})
}

// TestOldDiskFormatDropped: an entry the previous format wrote — valid
// digest, but an artifact still carrying "cached"/"elapsed_ns" — must
// not have a stamp spliced after it. It fails verification on the first
// Get, is deleted and counted, and the request recompiles and rewrites
// it in the current format.
func TestOldDiskFormatDropped(t *testing.T) {
	dir := t.TempDir()
	req := CompileRequest{Source: daxpySrc, Options: fullOpts()}
	key := keyFor(t, req)
	oldBlob, err := json.Marshal(CompileResponse{Key: key, Asm: "stale"})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(oldBlob)
	path := filepath.Join(dir, key+".json")
	old := append([]byte("titanart1 "+hex.EncodeToString(sum[:])+"\n"), oldBlob...)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{CacheDir: dir})
	out, code := postCompile(t, ts, req)
	if code != http.StatusOK || out.Cached || out.Key != key || out.Asm == "stale" || out.Report == nil {
		t.Fatalf("request over an old-format entry: %d cached=%v asm=%q", code, out.Cached, out.Asm)
	}
	if m := getMetrics(t, ts); m.Cache.CorruptDrops != 1 || m.Compiles.CacheMisses != 1 {
		t.Errorf("corrupt_drops=%d misses=%d, want 1 and 1", m.Cache.CorruptDrops, m.Compiles.CacheMisses)
	}
	raw, err := os.ReadFile(path)
	if err != nil || !bytes.HasPrefix(raw, []byte("titanart2 ")) {
		t.Fatalf("entry not rewritten in the current format: %v %.20q", err, raw)
	}
	_, restarted := newTestServer(t, Config{CacheDir: dir})
	if again, _ := postCompile(t, restarted, req); again.CacheTier != TierDisk || again.Asm != out.Asm {
		t.Errorf("rewritten entry after restart: tier=%q", again.CacheTier)
	}
}

// discardResponse is a ResponseWriter that keeps nothing, so allocation
// counts are the handler's own.
type discardResponse struct {
	header http.Header
	bytes  int
}

func (d *discardResponse) Header() http.Header { return d.header }
func (d *discardResponse) WriteHeader(int)     {}
func (d *discardResponse) Write(p []byte) (int, error) {
	d.bytes += len(p)
	return len(p), nil
}

// TestRespondArtifactAllocs guards the zero-decode reply: stamping and
// writing an artifact allocates a small constant (header values and the
// stamp) whatever the artifact's size. A decode, an encode or a copy of
// the blob would show up here long before it showed up in a benchmark.
func TestRespondArtifactAllocs(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(size int) float64 {
		blob, err := json.Marshal(artifact{Key: "k", IL: strings.Repeat("x", size)})
		if err != nil {
			t.Fatal(err)
		}
		w := &discardResponse{header: http.Header{}}
		start := time.Now()
		n := testing.AllocsPerRun(100, func() { s.respondArtifact(w, blob, start, true, TierMemory) })
		if w.bytes == 0 {
			t.Fatal("nothing written")
		}
		return n
	}
	small, large := allocs(1<<10), allocs(4<<20)
	if small != large || large > 6 {
		t.Errorf("respondArtifact allocates %v times for 1 KiB and %v for 4 MiB, want equal and at most 6", small, large)
	}
}

// bigUnit is a translation unit whose artifact is about 100 KB, the
// size the serving benchmark's generated units produce.
func bigUnit() string {
	var b strings.Builder
	const procs = 48
	for i := 0; i < procs; i++ {
		fmt.Fprintf(&b, "void f%d(float *p, float *q, int n)\n{\n\tint i;\n\tfor (i = 0; i < n; i++)\n\t\tp[i] = q[i] * %d + p[i];\n}\n", i, i+1)
	}
	// main calls none of them: inlining 40 loops into one procedure runs
	// codegen out of integer registers.
	b.WriteString("int main(void)\n{\n\treturn 0;\n}\n")
	return b.String()
}

// BenchmarkRespondArtifact is the serve-hot operation without the
// socket: a memory hit on a ~100 KB artifact through the handler.
func BenchmarkRespondArtifact(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	body, err := json.Marshal(CompileRequest{Source: bigUnit(), Options: fullOpts()})
	if err != nil {
		b.Fatal(err)
	}
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	size := serve().Body.Len() // the compile; every later call is a hit
	if size < 90<<10 || size > 110<<10 {
		b.Fatalf("artifact is %d bytes, want about 100 KB", size)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// fuzzTiers are the values a reply's cache_tier can take.
var fuzzTiers = []string{TierNone, TierMemory, TierDisk, TierInflight, TierRemote}

// topLevelKeys lists the member names of the JSON object in data, in
// order, duplicates included.
func topLevelKeys(t *testing.T, data []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not an object: %v %v", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("member name: %v", err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatalf("member %q: %v", tok, err)
		}
	}
	return keys
}

// procsIngestCases are run objects' procs lists as a peer might send
// them, and whether the ingest gate must take them.
var procsIngestCases = []struct {
	name string
	json string
	ok   bool
}{
	{"two processors", `[{"pid":0,"busy_cycles":9,"sync_stall_cycles":1,"join_idle_cycles":0},{"pid":3,"busy_cycles":8,"sync_stall_cycles":0,"join_idle_cycles":2}]`, true},
	{"pid past the last processor", `[{"pid":4,"busy_cycles":9}]`, false},
	{"negative pid", `[{"pid":-1,"busy_cycles":9}]`, false},
	{"huge pid", `[{"pid":9223372036854775807,"busy_cycles":9}]`, false},
	{"repeated pid", `[{"pid":1,"busy_cycles":9},{"pid":1,"busy_cycles":8}]`, false},
	{"unknown member", `[{"pid":0,"busy":9}]`, false},
	{"not a list", `{"pid":0}`, false},
}

// runBlob is a stored artifact under key whose run carries procs.
func runBlob(key, procs string) []byte {
	return []byte(`{"key":"` + key + `","il":"","asm":"","report":null,"run":{"cycles":5,"flops":0,"instrs":4,"exit_code":0,"procs":` + procs + `,"mflops":0,"processors":4,"host_nanos":1}}`)
}

// TestArtifactIngestProcs: the procs decoder on the ingest path refuses
// an out-of-range or repeated pid and an unknown member with an error,
// and takes a well-formed list.
func TestArtifactIngestProcs(t *testing.T) {
	key := strings.Repeat("ab", 32)
	for _, c := range procsIngestCases {
		if err := checkArtifact(key, runBlob(key, c.json)); (err == nil) != c.ok {
			t.Errorf("%s: checkArtifact error %v, want accepted=%v", c.name, err, c.ok)
		}
	}
	// The corpus's artifact with a run predates the procs decoder and
	// must still pass the gate.
	raw, err := os.ReadFile("testdata/fuzz/FuzzArtifactIngest/compiled-artifact-with-run")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	seedKey, err1 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
	blob, err2 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
	if err1 != nil || err2 != nil {
		t.Fatalf("corpus entry does not parse: %v %v", err1, err2)
	}
	if err := checkArtifact(seedKey, []byte(blob)); err != nil {
		t.Errorf("compiled-artifact-with-run refused: %v", err)
	}
}

// FuzzArtifactIngest: the ingest gate never panics, and whatever it
// lets into the cache can be served — the spliced reply is valid JSON,
// decodes to a CompileResponse under the requested key, and its stamped
// fields are the stamp's and appear exactly once (no member of the
// stored bytes shadows or duplicates them).
func FuzzArtifactIngest(f *testing.F) {
	key := strings.Repeat("ab", 32)
	f.Add(key, []byte(`{"key":"`+key+`","il":"","asm":"ret","report":null}`), true, byte(1), int64(1234))
	f.Add(key, []byte(` { "key" : "`+key+`" } `), false, byte(0), int64(-1))
	f.Add(key, []byte(`{"key":"`+key+`","il":"","asm":"","report":null,"cached":false,"elapsed_ns":0}`), true, byte(2), int64(0))
	f.Add(key, []byte(`{"key":"`+key+`","key":"`+strings.Repeat("0", 64)+`"}`), true, byte(3), int64(7))
	f.Add(key, []byte(`{"key":"`+key+`","asm":"ret"}{}`), true, byte(4), int64(7))
	f.Add(key, []byte(`{"key":"`+key+`","asm":"re`), false, byte(0), int64(7))
	f.Add("", []byte(`{}`), false, byte(0), int64(0))
	f.Add("", []byte(`null`), false, byte(0), int64(0))
	for _, procs := range procsIngestCases {
		f.Add(key, runBlob(key, procs.json), true, byte(1), int64(7))
	}
	f.Fuzz(func(t *testing.T, key string, blob []byte, cached bool, tierIndex byte, elapsed int64) {
		if checkArtifact(key, blob) != nil {
			return
		}
		tier := fuzzTiers[int(tierIndex)%len(fuzzTiers)]
		reply := appendStamped(nil, blob, cached, tier, elapsed)
		dec := json.NewDecoder(bytes.NewReader(reply))
		dec.DisallowUnknownFields()
		var resp CompileResponse
		if err := dec.Decode(&resp); err != nil || !json.Valid(reply) {
			t.Fatalf("accepted blob %q splices to an undecodable reply %q: %v", blob, reply, err)
		}
		if resp.Key != key || resp.Cached != cached || resp.CacheTier != tier || resp.ElapsedNS != elapsed {
			t.Fatalf("reply %q decodes to key=%q cached=%v tier=%q elapsed=%d, want %q %v %q %d",
				reply, resp.Key, resp.Cached, resp.CacheTier, resp.ElapsedNS, key, cached, tier, elapsed)
		}
		stamped := 0
		for _, k := range topLevelKeys(t, reply) {
			switch strings.ToLower(k) {
			case "cached", "cache_tier", "elapsed_ns":
				stamped++
			}
		}
		want := 2
		if tier != TierNone {
			want = 3
		}
		if stamped != want {
			t.Fatalf("reply %q has %d stamped members, want %d", reply, stamped, want)
		}
	})
}
