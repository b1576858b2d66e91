package service

import (
	"fmt"
	"sync"
)

// flightGroup deduplicates concurrent identical work — compiles, and
// fetches from peers: the first request for a key becomes the leader and
// runs the work; every request for the same key that arrives while it
// runs joins the same flight and shares the result. NeuroVectorizer-style workloads fire bursts of
// byte-identical requests, so without this every burst would compile the
// same unit once per connection.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
}

// flight is one in-progress computation. blob/val/err are written once,
// before done is closed; waiters read them only after <-done. val is the
// decoded value of a peer fetch (nil for a compile, whose blob is all).
type flight struct {
	done chan struct{}
	blob []byte
	val  any
	err  error
}

// do joins or starts the flight for key. The caller that starts it (the
// returned leader flag) has fn run in a dedicated goroutine registered
// on wg — the daemon's drain path waits on wg, so an in-flight compile
// whose requester timed out still completes and lands in the cache
// before shutdown. A panic in fn ends the flight with a *panicError, so
// every caller on it gets an error instead of the process exiting.
func (g *flightGroup) do(key string, wg *sync.WaitGroup, fn func() ([]byte, any, error)) (*flight, bool) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = map[string]*flight{}
	}
	if f, ok := g.flights[key]; ok {
		g.mu.Unlock()
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()

	wg.Add(1)
	go func() {
		defer wg.Done()
		func() {
			defer func() {
				if p := recover(); p != nil {
					f.err = &panicError{key: key, value: p}
				}
			}()
			f.blob, f.val, f.err = fn()
		}()
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		close(f.done)
	}()
	return f, true
}

// panicError is a flight whose work panicked: a compiler bug, answered
// as a 500 that names the key so the unit can be reproduced.
type panicError struct {
	key   string
	value any
}

func (e *panicError) Error() string {
	return fmt.Sprintf("internal error compiling %s: panic: %v", e.key, e.value)
}
