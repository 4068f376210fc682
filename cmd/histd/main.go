// Command histd serves the k-histogram tester over HTTP/JSON: a bounded
// worker pool runs tester requests (recorded datasets or registered
// sampler specs) with admission control, per-request deadlines, and
// graceful drain on SIGTERM.
//
// Usage:
//
//	histd -addr :8765
//	histd -addr :8765 -workers 8 -queue 32 -timeout 30s
//	histd -addr :8765 -trace-json traces.jsonl
//
// Endpoints (see repro/histtest/client for the wire types and a typed
// Go client):
//
//	POST /v1/test         run the tester once
//	POST /v1/test/stream  run a batch, results streamed as JSON lines
//	POST /v1/closeness    two-sample closeness: are two sources serving
//	                      the same distribution? (request "reps" sets
//	                      the majority vote; default 5)
//	POST /v1/samplers     register a distribution spec for reuse
//	POST /v1/streams      register an ingestion stream (see -max-streams)
//	POST /v1/streams/{id}/events  ingest raw events (ndjson or binary)
//	POST /v1/streams/{id}/test    test the stream's accumulated counts
//	GET  /healthz         readiness (503 once draining)
//	GET  /debug/vars      live expvar counters (histd.*, histtest.*)
//
// On SIGTERM (or ^C) the server drains: /healthz flips to 503, new
// requests are rejected, and in-flight runs get -drain-timeout to finish
// before being cancelled at their next sieve-round boundary.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: flags and wiring, with the process
// lifetime bound to ctx (cancellation triggers the graceful drain).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("histd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "localhost:8765", "listen address")
		workers     = fs.Int("workers", 0, "worker pool size (concurrent tester runs); 0 = all cores. Each run fans its replicates out over max(1, cores/workers) goroutines")
		queue       = fs.Int("queue", 0, "admission queue depth beyond the running workers, and the largest /v1/test/stream batch; 0 = 2x workers")
		timeout     = fs.Duration("timeout", 30*time.Second, "default per-request deadline (requests may lower it; 0 disables)")
		maxTimeout  = fs.Duration("max-timeout", 5*time.Minute, "upper clamp on request-supplied deadlines")
		retryAfter  = fs.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
		drainT      = fs.Duration("drain-timeout", 15*time.Second, "how long in-flight runs may finish after SIGTERM before being cancelled")
		maxBody     = fs.Int64("max-body", 1<<26, "request body size limit in bytes")
		traceJSON   = fs.String("trace-json", "", "stream per-request stage events as JSON lines to this file")
		maxStreams  = fs.Int("max-streams", 0, "max live ingestion streams across all tenants; 0 = 256")
		tenantQuota = fs.Int("tenant-streams", 0, "max live ingestion streams per tenant; 0 = 32")
		streamTTL   = fs.Duration("stream-ttl", 0, "evict ingestion streams idle this long; 0 = 15m")
		ingestQueue = fs.Int("ingest-queue", 0, "max concurrently decoding ingest batches before 429 pushback; 0 = 2x workers")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "histd: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	cfg := serve.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		RetryAfter:        *retryAfter,
		MaxBodyBytes:      *maxBody,
		MaxStreams:        *maxStreams,
		StreamTenantQuota: *tenantQuota,
		StreamTTL:         *streamTTL,
		IngestQueue:       *ingestQueue,
	}
	if *timeout == 0 {
		cfg.DefaultTimeout = -1 // serve treats negative as "no default deadline"
	}
	if *traceJSON != "" {
		f, err := os.Create(*traceJSON)
		if err != nil {
			fmt.Fprintf(stderr, "histd: %v\n", err)
			return 1
		}
		bw := bufio.NewWriter(f)
		jl := obs.NewJSONLines(bw)
		defer func() {
			if err := jl.Err(); err != nil {
				fmt.Fprintf(stderr, "histd: trace: %v\n", err)
			}
			if err := bw.Flush(); err != nil {
				fmt.Fprintf(stderr, "histd: trace: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "histd: trace: %v\n", err)
			}
		}()
		cfg.Observer = jl
	}

	srv := serve.New(cfg)
	httpSrv := &http.Server{Handler: srv.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "histd: %v\n", err)
		srv.Close()
		return 1
	}
	// The resolved address line is load-bearing for -addr :0 (tests and
	// scripts parse it to find the port).
	fmt.Fprintf(stderr, "histd: listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		srv.Close()
		fmt.Fprintf(stderr, "histd: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: flip readiness first so load balancers stop
	// routing, then stop accepting and give in-flight runs the drain
	// budget; on expiry the pool hard-cancels through the testers'
	// context checks.
	fmt.Fprintf(stderr, "histd: draining (up to %s)\n", *drainT)
	srv.StartDraining()
	dctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(dctx)
	drainErr := srv.Drain(dctx)
	switch {
	case shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded):
		fmt.Fprintf(stderr, "histd: shutdown: %v\n", shutdownErr)
		return 1
	case errors.Is(drainErr, context.DeadlineExceeded) || errors.Is(shutdownErr, context.DeadlineExceeded):
		fmt.Fprintln(stderr, "histd: drain deadline hit; in-flight runs were cancelled")
		return 0
	case drainErr != nil:
		fmt.Fprintf(stderr, "histd: drain: %v\n", drainErr)
		return 1
	}
	fmt.Fprintln(stderr, "histd: drained cleanly")
	return 0
}
