package service

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
)

// Cache is titand's one content-addressed store. Every kind of bytes the
// daemon keeps — compile artifacts, tuned schedule plans and §7 catalogs
// (see kind) — lives in it under one in-memory byte budget, and
// artifacts have an optional disk tier underneath so a restarted daemon
// serves its old artifacts warm. Keys are hex digests (artifact and plan
// keys derive from driver.CacheKey, catalog ids are content
// fingerprints), so equal keys imply equal bytes and a put is idempotent.
//
// Evictable kinds share one LRU. Pinned kinds are never evicted but count
// against the same budget: a pinned put that would push the pinned bytes
// past it is refused, and everything else gives way to pinned entries.
//
// Disk entries are written with a SHA-256 content header and verified
// on every read: a flipped bit (disk rot, torn write, an operator's
// stray edit) makes the entry fail verification, and the cache silently
// deletes it and reports a miss rather than serving a corrupt artifact.
type Cache struct {
	mu        sync.Mutex
	budget    int64      // in-memory byte budget; <= 0 means unbounded
	bytes     int64      // every entry's raw bytes
	pinned    int64      // the pinned entries' share of bytes
	order     *list.List // evictable entries, front = most recently used
	items     map[slot]*item
	perKind   map[*kind]int
	dir       string // disk tier root; "" disables it
	evictions int64
	diskErrs  int64
	corrupt   int64
}

// slot names one entry. The kind is part of the name because one digest
// can key two kinds: a tuned request without a run has its plan's key.
type slot struct {
	k   *kind
	key string
}

// item is one entry: the bytes as stored and served, and the value they
// decode to (nil for artifacts, whose bytes are the value). Both are set
// before the item is published and never change.
type item struct {
	slot
	raw []byte
	val any
	el  *list.Element // position in order; nil when pinned
}

// CacheStats is the /metrics view of the cache. Entries and Bytes span
// every kind.
type CacheStats struct {
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
	Evictions   int64 `json:"evictions"`
	DiskErrors  int64 `json:"disk_errors"`
	// CorruptDrops counts disk entries that failed SHA-256 verification
	// on read and were deleted instead of served.
	CorruptDrops int64 `json:"corrupt_drops"`
	// PeerRejects counts entries a peer supplied (a PUT to the peer tier,
	// or its answer to a fetch) that failed their kind's ingest check and
	// never entered the store. The server counts these, not the Cache,
	// which stores whatever bytes it is given.
	PeerRejects int64 `json:"peer_rejects"`

	perKind map[*kind]int // entries per kind, for the per-kind /metrics counts
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
		budget:  budgetBytes,
		order:   list.New(),
		items:   map[slot]*item{},
		perKind: map[*kind]int{},
		dir:     dir,
	}, nil
}

// Get returns the artifact for key and the tier that served it
// (TierMemory, TierDisk, or TierNone when absent). A disk hit is
// verified against its content digest, then promoted into memory.
func (c *Cache) Get(key string) ([]byte, string) { return c.get(artifactKind, key) }

// get is Get for any kind; only artifacts have a disk tier.
func (c *Cache) get(k *kind, key string) ([]byte, string) {
	if it, ok := c.lookup(k, key); ok {
		return it.raw, TierMemory
	}
	if k != artifactKind || c.dir == "" {
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
	c.put(k, key, blob, nil, false)
	return blob, TierDisk
}

// lookup is the memory tier: k's entry under key, refreshed in the LRU.
func (c *Cache) lookup(k *kind, key string) (*item, bool) {
	c.mu.Lock()
	it, ok := c.items[slot{k, key}]
	if ok && it.el != nil {
		c.order.MoveToFront(it.el)
	}
	c.mu.Unlock()
	return it, ok
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
func (c *Cache) Put(key string, blob []byte) { c.put(artifactKind, key, blob, nil, true) }

// put stores raw and the value it decodes to under k and key in memory
// and, for an artifact with writeDisk, on disk. A repeat put of a held
// entry only refreshes it. An evictable entry that cannot fit beside the
// pinned ones stays out of memory (it would evict everything and still
// not help the next request); a pinned one is refused with an error that
// names the budget.
func (c *Cache) put(k *kind, key string, raw []byte, val any, writeDisk bool) error {
	s := slot{k, key}
	size := int64(len(raw))
	c.mu.Lock()
	if it, ok := c.items[s]; ok {
		// Content-addressed: same key means same bytes; just refresh.
		if it.el != nil {
			c.order.MoveToFront(it.el)
		}
	} else if c.budget > 0 && c.pinned+size > c.budget {
		if !k.evictable {
			pinned := c.pinned
			c.mu.Unlock()
			return fmt.Errorf("%d bytes do not fit the %d-byte memory budget (titand -cache-mb): pinned catalogs already hold %d",
				size, c.budget, pinned)
		}
	} else {
		it := &item{slot: s, raw: raw, val: val}
		if k.evictable {
			it.el = c.order.PushFront(it)
		} else {
			c.pinned += size
		}
		c.items[s] = it
		c.perKind[k]++
		c.bytes += size
		// The new entry is never the victim: pinned+size <= budget.
		for c.budget > 0 && c.bytes > c.budget {
			old := c.order.Remove(c.order.Back()).(*item)
			delete(c.items, old.slot)
			c.perKind[old.k]--
			c.bytes -= int64(len(old.raw))
			c.evictions++
		}
	}
	c.mu.Unlock()

	if writeDisk && k == artifactKind && c.dir != "" {
		// Atomic publish so a concurrent Get never reads a half-written
		// artifact and a crash never leaves one behind.
		tmp := c.path(key) + ".tmp"
		err := os.WriteFile(tmp, encodeDiskEntry(raw), 0o644)
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
	return nil
}

// Stats snapshots the counters for /metrics.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:      len(c.items),
		Bytes:        c.bytes,
		BudgetBytes:  c.budget,
		Evictions:    c.evictions,
		DiskErrors:   c.diskErrs,
		CorruptDrops: c.corrupt,
		perKind:      maps.Clone(c.perKind),
	}
}

func (c *Cache) path(key string) string {
	// Keys are hex digests — safe as file names as-is.
	return filepath.Join(c.dir, key+".json")
}
