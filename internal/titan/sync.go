package titan

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// DOACROSS synchronization state (arXiv:1211.4101). Each parallel region
// that contains post/wait instructions gets one syncState shared by its
// processors. Cells are monotone-max registers: post publishes a value
// that can only grow the cell, and wait blocks until the cell reaches a
// threshold. That monotonicity is what keeps the fast engine's
// goroutine-per-processor execution bit-identical to the reference
// interpreter's deterministic round-robin: which post first satisfies a
// given threshold is a property of the producer's program order, not of
// the host schedule, so the simulated wait-release time below is
// schedule-independent for the single-producer/single-consumer cell
// shapes the compiler generates (the same stance DESIGN.md takes for
// DOALL regions' disjoint stores).
//
// Timing model: a post behaves like a store (latency 1) and records the
// cycle its value became visible. A wait behaves like a load (latency 6)
// whose data is the awaited cell: it completes at
//
//	max(own done, T + waitLatency)
//
// where T is the completion cycle of the first post that raised the cell
// to the threshold. The difference beyond the wait's own latency is
// accounted as sync-stall cycles on the waiting processor.

// waitLatency is the load-like latency of a wait once its post has
// arrived (the cell read crosses the shared-memory path like any load).
const waitLatency = 6

// syncEntry is one recorded post: the value published and the simulated
// cycle it completed on the posting processor.
type syncEntry struct {
	val int64
	t   int64
}

// syncCell is one synchronization cell.
type syncCell struct {
	val  int64 // high-water mark; math.MinInt64 when never posted
	hist []syncEntry
}

// syncState is the per-region synchronization fabric. Both engines' lives
// in the machine's region scratch and is reset for every region; the cell
// histories keep their capacity, so posting allocates nothing once a
// machine has seen its longest region.
type syncState struct {
	mu    sync.Mutex
	cond  sync.Cond // on mu
	cells [NumSyncCells]syncCell
	// procs/waiting/done/waiters drive distributed deadlock detection in
	// the fast engine: when every processor still in the region is
	// blocked and no blocked processor's condition is already met, no
	// post can ever arrive.
	procs   int
	waiting int
	done    int
	dead    bool
	waiters [MaxProcessors]syncWaiter // by pid
}

// syncWaiter records what a processor currently inside waitFast is
// blocked on, so deadlock detection can tell "blocked forever" apart
// from "released but not yet rescheduled by the host".
type syncWaiter struct {
	on   bool
	cell int
	th   int64
}

// reset readies ss for a region of procs processors: no cell posted, no
// processor waiting or done.
func (ss *syncState) reset(procs int) {
	ss.cond.L = &ss.mu
	for i := range ss.cells {
		ss.cells[i].val = math.MinInt64
		ss.cells[i].hist = ss.cells[i].hist[:0]
	}
	ss.procs, ss.waiting, ss.done, ss.dead = procs, 0, 0, false
	clear(ss.waiters[:])
}

// clear is reset to nothing at all, the histories' spare capacity
// included: a recycled machine's fabric holds no post of its previous
// owner.
func (ss *syncState) clear() {
	for i := range ss.cells {
		clear(ss.cells[i].hist[:cap(ss.cells[i].hist)])
	}
	ss.reset(0)
}

// post publishes val into cell at completion cycle t. Values that do not
// raise the cell's high-water mark change nothing (they could not release
// any wait the earlier posts would not). The mutex acquire/release also
// gives the release/acquire ordering that makes the posting processor's
// slab stores visible to a processor its post releases.
func (ss *syncState) post(cell int, val, t int64) {
	ss.mu.Lock()
	cl := &ss.cells[cell]
	if val > cl.val {
		cl.val = val
		cl.hist = append(cl.hist, syncEntry{val: val, t: t})
	}
	ss.mu.Unlock()
	ss.cond.Broadcast()
}

// releaseTime returns the completion cycle of the first post that raised
// cell to at least th. The history is sorted by value (posts only append
// when they raise the mark), so the first satisfying entry is found by
// binary search. Must be called with the cell known satisfied.
func (cl *syncCell) releaseTime(th int64) int64 {
	i := sort.Search(len(cl.hist), func(i int) bool { return cl.hist[i].val >= th })
	return cl.hist[i].t
}

// peek reports whether cell has reached th, and the satisfying post's
// completion cycle when it has. The reference interpreter polls with
// this before charging the instruction.
func (ss *syncState) peek(cell int, th int64) (int64, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	cl := &ss.cells[cell]
	if cl.val < th {
		return 0, false
	}
	return cl.releaseTime(th), true
}

// waitFast blocks processor pid until cell reaches th and returns the
// satisfying post's completion cycle. If every processor still in the
// region is blocked (or finished), no post can arrive and the region is
// declared deadlocked.
func (ss *syncState) waitFast(pid, cell int, th int64, fname string) (int64, error) {
	ss.mu.Lock()
	ss.waiters[pid] = syncWaiter{on: true, cell: cell, th: th}
	for ss.cells[cell].val < th && !ss.dead {
		if ss.waiting+ss.done+1 >= ss.procs && !ss.anySatisfiedLocked() {
			ss.dead = true
			ss.cond.Broadcast()
			break
		}
		ss.waiting++
		ss.cond.Wait()
		ss.waiting--
	}
	ss.waiters[pid].on = false
	if ss.cells[cell].val < th {
		ss.mu.Unlock()
		return 0, fmt.Errorf("titan: sync deadlock in parallel region in %s", fname)
	}
	t := ss.cells[cell].releaseTime(th)
	ss.mu.Unlock()
	return t, nil
}

// anySatisfiedLocked reports whether some processor currently inside a
// wait already has its condition met — it was released by a post but the
// host has not rescheduled it yet, so the region can still make progress
// and declaring deadlock would be a false positive. Caller holds ss.mu.
func (ss *syncState) anySatisfiedLocked() bool {
	for _, w := range ss.waiters[:ss.procs] {
		if w.on && ss.cells[w.cell].val >= w.th {
			return true
		}
	}
	return false
}

// finish marks one processor as out of the region (completed or errored)
// for deadlock accounting.
func (ss *syncState) finish() {
	ss.mu.Lock()
	ss.done++
	ss.mu.Unlock()
	ss.cond.Broadcast()
}

// hasSyncOps reports whether the instruction range [start, end) contains
// post/wait, i.e. whether a parallel region needs a synchronization
// fabric and the blocking execution paths.
func hasSyncOps(instrs []Instr, start, end int) bool {
	for i := start; i < end && i < len(instrs); i++ {
		if instrs[i].Op.Mem() == MemFence {
			return true
		}
	}
	return false
}
