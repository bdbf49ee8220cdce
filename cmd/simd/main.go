// Command simd is the simulation-as-a-service daemon: an HTTP/JSON
// front end over the declarative scenario subsystem, the
// content-addressed result cache and the deterministic runner
// (internal/server).
//
//	simd -addr 127.0.0.1:8080 -cache .simd-cache
//
//	curl -X POST --data-binary @run.json http://127.0.0.1:8080/v1/runs
//	curl -X POST --data-binary @run.json 'http://127.0.0.1:8080/v1/runs?telemetry=1' | simtrace summarize -
//	curl http://127.0.0.1:8080/v1/runs/<scenario-key>
//	curl http://127.0.0.1:8080/v1/stats
//
// A POSTed scenario is canonicalized and keyed on its content address:
// identical in-flight requests coalesce onto one execution, repeat
// requests are cache hits served without re-simulation, and a served
// body is byte-identical to `netsim -scenario run.json -json` run
// locally. A full execution queue answers 429 with a Retry-After hint.
//
// On SIGTERM/SIGINT the daemon stops accepting connections, drains
// in-flight requests (bounded by -drain), and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/server"
)

// Connection timeouts: a client that never finishes its request
// headers, or leaves a keep-alive connection idle, loses the connection
// instead of holding it until shutdown. There is no write timeout,
// because telemetry streams and long runs legitimately write for
// minutes.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the service handler in the daemon's http.Server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	if err := run(os.Args[1:], os.Stdout, sigs); err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a shutdown signal arrives and
// the listener has drained. The signal channel is a parameter so tests
// drive shutdown without process-level signals.
func run(args []string, stdout io.Writer, sigs <-chan os.Signal) error {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		cacheDir    = fs.String("cache", ".simd-cache", "content-addressed result cache directory (\"\" disables caching)")
		queueCap    = fs.Int("queue", 0, "bound on admitted-but-not-started runs before 429 (0 = 64)")
		concurrency = fs.Int("concurrency", 0, "simultaneous simulation executions (0 = one per core; never affects results)")
		drain       = fs.Duration("drain", 30*time.Second, "graceful-shutdown bound for draining in-flight requests")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Bind before creating anything else, so a bad address leaves no
	// cache directory and no worker pool behind.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	var store *cache.Store
	if *cacheDir != "" {
		store, err = cache.NewStore(*cacheDir, 0)
		if err != nil {
			ln.Close()
			return err
		}
	}
	srv := server.New(server.Config{
		Cache:       store,
		QueueCap:    *queueCap,
		Concurrency: *concurrency,
	})
	// The resolved address line is the readiness contract scripts key on
	// (make simd-smoke greps it to learn the port picked for :0).
	fmt.Fprintf(stdout, "simd: listening on %s\n", ln.Addr())

	httpSrv := newHTTPServer(srv.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		srv.Close()
		return err
	case <-sigs:
	}
	fmt.Fprintf(stdout, "simd: shutting down (draining up to %v)\n", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		// Requests still in flight at the deadline are cut off; the
		// daemon still exits cleanly after releasing the pool.
		fmt.Fprintf(stdout, "simd: drain incomplete: %v\n", err)
	}
	srv.Close()
	return nil
}
