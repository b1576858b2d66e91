package service

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func blobOf(n int, fill byte) []byte { return bytes.Repeat([]byte{fill}, n) }

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(100, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), blobOf(30, byte(i)))
	}
	// 4×30 > 100: k0 (least recently used) must be gone, the rest present.
	if _, tier := c.Get("k0"); tier != TierNone {
		t.Error("k0 survived past the budget")
	}
	for i := 1; i < 4; i++ {
		if _, tier := c.Get(fmt.Sprintf("k%d", i)); tier != TierMemory {
			t.Errorf("k%d not in memory", i)
		}
	}
	st := c.Stats()
	if st.Entries != 3 || st.Bytes != 90 || st.Evictions != 1 {
		t.Errorf("stats: %+v", st)
	}

	// Touching k1 makes k2 the eviction victim for the next insert.
	c.Get("k1")
	c.Put("k4", blobOf(30, 4))
	if _, tier := c.Get("k2"); tier != TierNone {
		t.Error("k2 survived: LRU order not maintained by Get")
	}
	if _, tier := c.Get("k1"); tier != TierMemory {
		t.Error("recently used k1 was evicted")
	}
}

func TestCacheOversizedBlobSkipsMemory(t *testing.T) {
	c, err := NewCache(10, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Put("small", blobOf(8, 1))
	c.Put("huge", blobOf(1000, 2))
	if _, tier := c.Get("huge"); tier != TierNone {
		t.Error("over-budget blob entered memory")
	}
	if _, tier := c.Get("small"); tier != TierMemory {
		t.Error("over-budget blob evicted a fitting one")
	}
}

func TestCacheUnboundedBudget(t *testing.T) {
	c, err := NewCache(-1, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c.Put(fmt.Sprintf("k%d", i), blobOf(1000, byte(i)))
	}
	if st := c.Stats(); st.Entries != 50 || st.Evictions != 0 {
		t.Errorf("unbounded cache evicted: %+v", st)
	}
}

func TestCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("abc123", []byte(`{"key":"abc123"}`))
	if _, err := os.Stat(filepath.Join(dir, "abc123.json")); err != nil {
		t.Fatalf("artifact not on disk: %v", err)
	}

	// A fresh cache over the same directory — the restart case — serves
	// the artifact from disk and promotes it to memory.
	c2, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, tier := c2.Get("abc123")
	if tier != TierDisk || string(blob) != `{"key":"abc123"}` {
		t.Fatalf("warm restart: tier=%q blob=%q", tier, blob)
	}
	if _, tier := c2.Get("abc123"); tier != TierMemory {
		t.Error("disk hit was not promoted to memory")
	}
}

// TestServerWarmRestartFromDisk drives the restart path end to end: a
// second server over the same cache directory serves the first server's
// compile as a disk hit without running any pass.
func TestServerWarmRestartFromDisk(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{CacheDir: dir})
	req := CompileRequest{Source: daxpySrc, Options: fullOpts()}
	first, code := postCompile(t, ts1, req)
	if code != 200 || first.Cached {
		t.Fatalf("first: %d cached=%v", code, first.Cached)
	}

	s2, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	out, code := postCompile(t, ts2, req)
	if code != 200 {
		t.Fatalf("restart compile: %d", code)
	}
	if !out.Cached || out.CacheTier != TierDisk {
		t.Fatalf("restart not served from disk: cached=%v tier=%q", out.Cached, out.CacheTier)
	}
	if out.IL != first.IL || out.Asm != first.Asm {
		t.Error("disk artifact differs from the original")
	}
	m := getMetrics(t, ts2)
	if m.Compiles.DiskHits != 1 || len(m.Passes) != 0 {
		t.Errorf("restart server ran a pass for a disk hit: %+v passes=%v", m.Compiles, m.Passes)
	}
}

// TestCacheDiskCorruptionDropped flips one byte of an on-disk artifact
// and asserts the cache refuses to serve it: content verification
// fails, the entry is deleted, and the corruption is counted — the
// caller sees a plain miss and recompiles.
func TestCacheDiskCorruptionDropped(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte(`{"key":"k1","asm":"ret"}`)
	c.Put("k1", blob)

	path := filepath.Join(dir, "k1.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read disk entry: %v", err)
	}
	if !bytes.HasPrefix(raw, []byte("titanart2 ")) {
		t.Fatalf("disk entry header: %.20q", raw)
	}
	// Flip a byte inside the artifact body (past the digest header).
	raw[len(raw)-3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the directory (so memory cannot answer) must
	// report a miss, not the corrupt bytes.
	c2, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, tier := c2.Get("k1"); tier != TierNone {
		t.Fatalf("corrupt entry served: tier=%q blob=%q", tier, got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry not deleted from disk")
	}
	if st := c2.Stats(); st.CorruptDrops != 1 {
		t.Errorf("corrupt_drops = %d, want 1", st.CorruptDrops)
	}
	// The miss is permanent (file gone), so a re-Put repairs the entry.
	c2.Put("k1", blob)
	if got, tier := c2.Get("k1"); tier != TierMemory || !bytes.Equal(got, blob) {
		t.Errorf("after repair: tier=%q", tier)
	}
}

// TestCacheMissingHeaderDropped: a pre-header-format file (or a stray
// file an operator dropped in the cache dir) is treated as corrupt.
func TestCacheMissingHeaderDropped(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "k2.json"), []byte(`{"key":"k2"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, tier := c.Get("k2"); tier != TierNone {
		t.Fatalf("headerless entry served: tier=%q", tier)
	}
	if st := c.Stats(); st.CorruptDrops != 1 {
		t.Errorf("corrupt_drops = %d, want 1", st.CorruptDrops)
	}
}

// TestCacheConcurrentEvictionIntegrity hammers a tiny cache from many
// goroutines — puts, gets, disk promotions, and evictions interleaving
// freely — and asserts the core artifact-integrity invariant: a Get
// either misses or returns the complete, correct blob for its key.
// Run under -race this also proves the tier bookkeeping is data-race
// free while entries are being evicted mid-read.
func TestCacheConcurrentEvictionIntegrity(t *testing.T) {
	dir := t.TempDir()
	// Budget fits ~3 of the 10 working-set entries, so eviction churns
	// constantly while disk keeps every entry recoverable.
	c, err := NewCache(3*512, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := func(i int) []byte {
		b := bytes.Repeat([]byte{byte('a' + i)}, 512)
		b[0] = byte('0' + i) // make truncation at either end detectable
		b[len(b)-1] = byte('0' + i)
		return b
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 300; iter++ {
				i := (g + iter) % 10
				key := fmt.Sprintf("k%d", i)
				if iter%3 == 0 {
					c.Put(key, want(i))
					continue
				}
				blob, tier := c.Get(key)
				if tier == TierNone {
					continue // not written yet or evicted: a miss is fine
				}
				if !bytes.Equal(blob, want(i)) {
					select {
					case errs <- fmt.Sprintf("%s via %s: got %d bytes, first=%q last=%q",
						key, tier, len(blob), blob[:1], blob[len(blob)-1:]):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("partial or wrong artifact served: %s", e)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Error("test never evicted; shrink the budget")
	}
}
