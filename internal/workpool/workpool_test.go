package workpool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachNCoversEveryIndex: every index in [0, n) runs exactly once,
// at every pool width including the serial and over-provisioned cases.
func TestForEachNCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			counts := make([]int32, n)
			ForEachN(n, workers, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestForEachNSerialOnCallerGoroutine: workers<=1 must run inline — the
// front end's serial fallback depends on fn seeing the caller's state
// with no goroutine in between.
func TestForEachNSerialOnCallerGoroutine(t *testing.T) {
	order := []int{}
	ForEachN(5, 1, func(i int) { order = append(order, i) }) // no locking: must be inline
	for i, got := range order {
		if got != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

// TestForEachNBoundsConcurrency: at no point do more than `workers`
// invocations run simultaneously.
func TestForEachNBoundsConcurrency(t *testing.T) {
	const workers = 3
	var mu sync.Mutex
	running, peak := 0, 0
	ForEachN(64, workers, func(int) {
		mu.Lock()
		running++
		if running > peak {
			peak = running
		}
		mu.Unlock()
		mu.Lock()
		running--
		mu.Unlock()
	})
	if peak > workers {
		t.Errorf("observed %d concurrent invocations, cap is %d", peak, workers)
	}
	if peak < 1 {
		t.Errorf("nothing ran")
	}
}

// TestForEachNPanicReachesCaller: a panic in one worker's fn(3) surfaces
// on the calling goroutine, where a deferred recover can contain it, and
// only after every other call has returned.
func TestForEachNPanicReachesCaller(t *testing.T) {
	var running atomic.Int32
	got := func() (p any) {
		defer func() { p = recover() }()
		ForEachN(64, 4, func(i int) {
			if i == 3 {
				panic("fn(3)")
			}
			running.Add(1)
			time.Sleep(time.Millisecond)
			running.Add(-1)
		})
		return nil
	}()
	if got != "fn(3)" {
		t.Fatalf("recovered %v on the caller, want fn(3)'s panic", got)
	}
	if n := running.Load(); n != 0 {
		t.Errorf("%d calls still running when the panic reached the caller", n)
	}
}
