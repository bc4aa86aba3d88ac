// Command zend serves the zen model registry as a verification service:
// a long-running daemon answering Find/FindAll/Verify/Evaluate queries
// against registered models over HTTP/JSON, with a bounded solver worker
// pool, per-request deadlines, an LRU result cache, singleflight
// deduplication, and load shedding under overload.
//
//	zend -addr localhost:8347
//	curl localhost:8347/v1/models
//	curl -d '{"model":"demo/add8","kind":"find","predicate":{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":7}}}}' localhost:8347/v1/query
//	curl localhost:8347/v1/stats
//
// SIGINT/SIGTERM drain in-flight queries (bounded by -drain) before
// exit; a second signal exits immediately. The query encoding is
// documented in docs/serve.md.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"zen-go/internal/obs"
	"zen-go/internal/serve"
	"zen-go/zen"
)

func main() {
	var (
		addr           = flag.String("addr", "localhost:8347", "listen address (use :0 for a random port)")
		workers        = flag.Int("workers", 4, "concurrent solver executions")
		queue          = flag.Int("queue", 16, "queued executions before shedding with 429")
		cacheSize      = flag.Int("cache", 256, "result cache entries (0 disables)")
		pfWorkers      = flag.Int("portfolio-workers", 0, "SAT workers raced by portfolio-backend queries (0 = auto)")
		defaultTimeout = flag.Duration("default-timeout", 30*time.Second, "deadline for queries that set no timeout_ms (0 = none)")
		maxTimeout     = flag.Duration("max-timeout", 5*time.Minute, "cap on per-query timeout_ms (0 = no cap)")
		drain          = flag.Duration("drain", 10*time.Second, "max time to drain in-flight queries on shutdown")
		stats          = flag.Bool("stats", false, "print solver telemetry on exit")
		slowLog        = flag.String("slowlog", "", "append slow-query JSONL records to this file (- for stderr)")
		slowThreshold  = flag.Duration("slow-threshold", 100*time.Millisecond, "latency above which a query is logged as slow")
		slowSample     = flag.Int("slow-sample-every", 0, "also log 1-in-N fast queries for baseline context (0 = off)")
		snapshotDir    = flag.String("snapshot-dir", "", "persist per-model BDD answer snapshots here; loaded on start, written on drain")
		presolve       = flag.Bool("presolve", true, "run the abstract-interpretation presolve pass on every solver query")
		checkMetrics   = flag.Bool("check-metrics", false, "render and lint the /metrics exposition, then exit (CI gate)")
	)
	flag.Parse()

	cfg := serve.Config{
		Workers:          *workers,
		Queue:            *queue,
		CacheSize:        *cacheSize,
		PortfolioWorkers: *pfWorkers,
		DefaultTimeout:   *defaultTimeout,
		MaxTimeout:       *maxTimeout,
		SlowThreshold:    *slowThreshold,
		SlowSampleEvery:  *slowSample,
		SnapshotDir:      *snapshotDir,
		Presolve:         *presolve,
	}
	var slowFile *os.File
	switch *slowLog {
	case "":
	case "-":
		cfg.SlowLog = os.Stderr
	default:
		f, err := os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zend: slowlog: %v\n", err)
			os.Exit(2)
		}
		slowFile, cfg.SlowLog = f, f
	}

	srv := serve.New(cfg)

	if *checkMetrics {
		os.Exit(runMetricsCheck(srv))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zend: %v\n", err)
		os.Exit(2)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	// The signal handler must be installed before the address line goes
	// out: scripts treat that line as "ready" and may SIGTERM right away.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	// The bound address goes to stdout on its own line so scripts starting
	// zend with -addr :0 can read the port.
	fmt.Printf("zend: serving on http://%s (models: /v1/models, queries: /v1/query)\n", ln.Addr())
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "zend: %v\n", err)
		os.Exit(2)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "zend: %v received, draining (again to force quit)\n", sig)
	}
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "zend: second signal, exiting now")
		os.Exit(130)
	}()

	ctx, cancelFn := context.WithTimeout(context.Background(), *drain)
	defer cancelFn()
	code := 0
	// Stop intake first (new queries get 503/connection refused), then
	// let queued and running queries finish under the drain budget.
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "zend: http drain: %v\n", err)
		code = 1
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "zend: solver drain: %v\n", err)
		code = 1
	}
	if *stats {
		fmt.Fprint(os.Stderr, zen.GlobalStats().String())
	}
	if slowFile != nil {
		_ = slowFile.Close()
	}
	fmt.Fprintln(os.Stderr, "zend: bye")
	os.Exit(code)
}

// runMetricsCheck exercises the server once, renders the /metrics
// exposition in-process, and lints it: the format itself (via
// obs.LintMetrics) plus the presence of every family the counter tables
// mark stable (serve.StableMetrics). It is what scripts/check.sh runs as
// the metrics gate.
func runMetricsCheck(srv *serve.Server) int {
	// One real query so the histograms have observations to expose.
	res := srv.Do(context.Background(), &serve.Request{
		Model: "demo/add8", Kind: "find",
		Predicate: []byte(`{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":7}}}`),
	})
	if res.Status != "sat" {
		fmt.Fprintf(os.Stderr, "zend: check-metrics: probe query failed: %s (%s)\n", res.Status, res.ErrText())
		return 1
	}
	var buf bytes.Buffer
	if err := srv.WriteMetrics(&buf); err != nil {
		fmt.Fprintf(os.Stderr, "zend: check-metrics: render: %v\n", err)
		return 1
	}
	if err := obs.LintMetrics(bytes.NewReader(buf.Bytes())); err != nil {
		fmt.Fprintf(os.Stderr, "zend: check-metrics: exposition lint: %v\n", err)
		return 1
	}
	stable := serve.StableMetrics()
	for _, name := range stable {
		if !strings.Contains(buf.String(), "# TYPE "+name+" ") {
			fmt.Fprintf(os.Stderr, "zend: check-metrics: family %q missing\n", name)
			return 1
		}
	}
	fmt.Printf("zend: check-metrics ok (%d bytes, %d families checked)\n", buf.Len(), len(stable))
	return 0
}
