package service

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Cache is the content-addressed artifact store: an in-memory LRU held
// under a byte budget, with an optional disk tier underneath so a
// restarted daemon serves its old artifacts warm. Keys are hex digests
// (driver.CacheKey plus the request's run spec), so equal keys imply
// equal artifacts and Put is idempotent.
//
// Disk entries are written with a SHA-256 content header and verified
// on every read: a flipped bit (disk rot, torn write, an operator's
// stray edit) makes the entry fail verification, and the cache silently
// deletes it and reports a miss rather than serving a corrupt artifact.
type Cache struct {
	mu        sync.Mutex
	budget    int64 // in-memory byte budget; <= 0 means unbounded
	bytes     int64
	order     *list.List // front = most recently used
	items     map[string]*list.Element
	dir       string // disk tier root; "" disables it
	evictions int64
	diskErrs  int64
	corrupt   int64
}

type cacheItem struct {
	key  string
	blob []byte
}

// CacheStats is the /metrics view of the cache.
type CacheStats struct {
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
	Evictions   int64 `json:"evictions"`
	DiskErrors  int64 `json:"disk_errors"`
	// CorruptDrops counts disk entries that failed SHA-256 verification
	// on read and were deleted instead of served.
	CorruptDrops int64 `json:"corrupt_drops"`
	// PeerRejects counts artifacts and tuned plans a peer supplied (a
	// PUT /cache/{key} or /schedules/{key}, or its answer to a fetch)
	// that failed the ingest check and never entered a cache. The server counts these, not the Cache, which
	// stores whatever bytes it is given.
	PeerRejects int64 `json:"peer_rejects"`
}

// Cache tiers reported by Get (plus the two pseudo-tiers the compile
// handler stamps on responses it served without a local cache read).
const (
	TierNone   = ""
	TierMemory = "memory"
	TierDisk   = "disk"
	// TierInflight is not a Cache tier: the compile handler reports it
	// when a request was served by joining an identical in-flight
	// compile rather than by the cache.
	TierInflight = "inflight"
	// TierRemote is not a Cache tier either: it marks an artifact
	// fetched from the owning cluster peer instead of recompiled.
	TierRemote = "remote"
)

// diskMagic heads every disk-tier file, followed by the hex SHA-256 of
// the artifact bytes and a newline. Files without the header (or whose
// body does not hash to the recorded digest) are corrupt and deleted.
// The version digit names the artifact shape: titanart1 entries carried
// a dead "cached"/"elapsed_ns" pair that a stamp must not be spliced
// after, so they fail the prefix check and are recompiled.
const diskMagic = "titanart2 "

// NewCache returns a cache with the given in-memory budget and optional
// disk directory (created if missing).
func NewCache(budgetBytes int64, dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: cache dir: %w", err)
		}
	}
	return &Cache{
		budget: budgetBytes,
		order:  list.New(),
		items:  map[string]*list.Element{},
		dir:    dir,
	}, nil
}

// Get returns the artifact for key and the tier that served it
// (TierMemory, TierDisk, or TierNone when absent). A disk hit is
// verified against its content digest, then promoted into memory.
func (c *Cache) Get(key string) ([]byte, string) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		blob := el.Value.(*cacheItem).blob
		c.mu.Unlock()
		return blob, TierMemory
	}
	c.mu.Unlock()
	if c.dir == "" {
		return nil, TierNone
	}
	raw, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, TierNone
	}
	blob, ok := decodeDiskEntry(raw)
	if !ok {
		// Corrupt on disk: drop it so it is recompiled, never served.
		os.Remove(c.path(key))
		c.mu.Lock()
		c.corrupt++
		c.mu.Unlock()
		return nil, TierNone
	}
	c.put(key, blob, false)
	return blob, TierDisk
}

// decodeDiskEntry strips and verifies the content header.
func decodeDiskEntry(raw []byte) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(raw, []byte(diskMagic))
	if !ok {
		return nil, false
	}
	digest, blob, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok || len(digest) != sha256.Size*2 {
		return nil, false
	}
	sum := sha256.Sum256(blob)
	if hex.EncodeToString(sum[:]) != string(digest) {
		return nil, false
	}
	return blob, true
}

// encodeDiskEntry prepends the content header.
func encodeDiskEntry(blob []byte) []byte {
	sum := sha256.Sum256(blob)
	out := make([]byte, 0, len(diskMagic)+sha256.Size*2+1+len(blob))
	out = append(out, diskMagic...)
	out = hex.AppendEncode(out, sum[:])
	out = append(out, '\n')
	return append(out, blob...)
}

// Put stores an artifact in memory (budget permitting) and, when a disk
// tier is configured, durably on disk. Disk failures are counted, not
// fatal: the cache is an accelerator, never a correctness dependency.
func (c *Cache) Put(key string, blob []byte) { c.put(key, blob, true) }

// PutLocal stores an artifact in memory only. The remote tier uses it
// to promote peer-fetched artifacts: the owning peer is the durable
// copy, so replicating it onto every reader's disk would just multiply
// the fleet's storage by the node count.
func (c *Cache) PutLocal(key string, blob []byte) { c.put(key, blob, false) }

func (c *Cache) put(key string, blob []byte, writeDisk bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		// Content-addressed: same key means same artifact; just refresh.
		c.order.MoveToFront(el)
	} else if c.budget <= 0 || int64(len(blob)) <= c.budget {
		c.items[key] = c.order.PushFront(&cacheItem{key: key, blob: blob})
		c.bytes += int64(len(blob))
		for c.budget > 0 && c.bytes > c.budget && c.order.Len() > 1 {
			back := c.order.Back()
			it := back.Value.(*cacheItem)
			c.order.Remove(back)
			delete(c.items, it.key)
			c.bytes -= int64(len(it.blob))
			c.evictions++
		}
	}
	// else: a single blob over the whole budget never enters memory —
	// it would evict everything and still not help the next request.
	c.mu.Unlock()

	if writeDisk && c.dir != "" {
		// Atomic publish so a concurrent Get never reads a half-written
		// artifact and a crash never leaves one behind.
		tmp := c.path(key) + ".tmp"
		err := os.WriteFile(tmp, encodeDiskEntry(blob), 0o644)
		if err == nil {
			err = os.Rename(tmp, c.path(key))
		}
		if err != nil {
			os.Remove(tmp)
			c.mu.Lock()
			c.diskErrs++
			c.mu.Unlock()
		}
	}
}

// Stats snapshots the counters for /metrics.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:      c.order.Len(),
		Bytes:        c.bytes,
		BudgetBytes:  c.budget,
		Evictions:    c.evictions,
		DiskErrors:   c.diskErrs,
		CorruptDrops: c.corrupt,
	}
}

func (c *Cache) path(key string) string {
	// Keys are hex digests — safe as file names as-is.
	return filepath.Join(c.dir, key+".json")
}
