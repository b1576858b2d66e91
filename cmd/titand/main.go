// Command titand runs the Titan compile service: a long-lived HTTP
// daemon that compiles C for the simulated Titan behind a bounded worker
// pool, deduplicates identical in-flight requests, and serves repeats
// from a content-addressed artifact cache (see internal/service).
//
// Usage:
//
//	titand [flags]
//
// Flags:
//
//	-addr host:port   listen address (default 127.0.0.1:8344)
//	-workers N        concurrent compiles (default GOMAXPROCS)
//	-queue N          queued compiles beyond the running ones before
//	                  requests are rejected with 503 (default 64)
//	-timeout D        per-request wait bound, e.g. 30s (default 60s)
//	-cache-mb N       memory budget for everything titand stores (default 64)
//	-cache-dir DIR    also persist artifacts under DIR so restarts
//	                  serve them warm (default off)
//	-rate N           per-client admitted compiles per second
//	                  (0: no rate limiting)
//	-burst N          per-client burst (default 2×rate)
//
// Cluster mode (see internal/cluster): a static peer list turns N
// daemons into one sharded compile service with a remote cache tier.
//
//	-self URL         this node's advertised base URL
//	                  (default http://<addr>)
//	-peers URLs       comma-separated peer base URLs
//	-peers-file PATH  file of peer URLs, one per line (# comments);
//	                  combined with -peers
//
// Endpoints: POST /compile, POST /compile/batch, POST+GET /catalogs,
// GET /metrics, GET /healthz (liveness), GET /readyz (readiness), and
// the peer tier of the store (GET/PUT /cache/{key}, /schedules/{key} and
// /catalogs/{id}). SIGINT/SIGTERM shut down gracefully: readiness
// goes false, the listener closes, in-flight compiles drain and publish
// to the cache, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8344", "listen address")
		workers   = flag.Int("workers", 0, "concurrent compiles (0: GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "queued compiles before 503")
		timeout   = flag.Duration("timeout", 60*time.Second, "per-request wait bound")
		cacheMB   = flag.Int64("cache-mb", 64, "memory budget for everything titand stores (MiB)")
		cacheDir  = flag.String("cache-dir", "", "persist artifacts under this directory (off when empty)")
		drainFor  = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight compiles at shutdown")
		rate      = flag.Float64("rate", 0, "per-client admitted compiles per second (0: off)")
		burst     = flag.Int("burst", 0, "per-client burst (0: 2×rate)")
		self      = flag.String("self", "", "this node's advertised base URL (default http://<addr>)")
		peers     = flag.String("peers", "", "comma-separated peer base URLs")
		peersFile = flag.String("peers-file", "", "file of peer base URLs, one per line")
	)
	flag.Parse()
	log.SetPrefix("titand: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	peerList, err := resolvePeers(*peers, *peersFile)
	if err != nil {
		log.Fatal(err)
	}
	var clu *cluster.Cluster
	if len(peerList) > 0 {
		selfURL := *self
		if selfURL == "" {
			selfURL = "http://" + *addr
		}
		clu, err = cluster.New(cluster.Config{Self: selfURL, Peers: peerList})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("cluster mode: self=%s peers=%s", selfURL, strings.Join(peerList, ","))
	}

	srv, err := service.New(service.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		Timeout:    *timeout,
		CacheBytes: *cacheMB << 20,
		CacheDir:   *cacheDir,
		Cluster:    clu,
		RatePerSec: *rate,
		RateBurst:  *burst,
	})
	if err != nil {
		log.Fatal(err)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("listening on %s (workers=%d queue=%d cache=%dMiB dir=%q)",
		*addr, *workers, *queue, *cacheMB, *cacheDir)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Print("signal received; draining")

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Drain(shutdownCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	clu.Close()
	log.Print("drained; exiting")
}

// resolvePeers merges the -peers flag with the -peers-file contents
// (one URL per line, blank lines and # comments skipped).
func resolvePeers(flagList, file string) ([]string, error) {
	var out []string
	for _, p := range strings.Split(flagList, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	if file != "" {
		raw, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			out = append(out, line)
		}
	}
	return out, nil
}
