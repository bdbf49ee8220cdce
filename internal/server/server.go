// Package server implements the simulation-as-a-service daemon behind
// cmd/simd: an HTTP/JSON front end over the declarative scenario
// subsystem, the content-addressed result cache and the deterministic
// runner.
//
// The request path is admission → singleflight → cache → queue →
// runner. A POSTed scenario is parsed, validated and canonicalized with
// sim.MarshalScenario, so everything downstream is keyed on
// sim.ScenarioKey — the SHA-256 content address of the run. Identical
// in-flight requests coalesce onto one execution (singleflight);
// completed results are served from the content-addressed store; the
// rest queue through a bounded worker pool whose admission failure is
// explicit backpressure (429 + Retry-After). Because the simulation
// kernel is bit-reproducible, a served body is byte-identical to a
// local `netsim -scenario ... -json` run of the same spec, no matter
// which of the three paths produced it.
//
// Telemetry streaming (`POST /v1/runs?telemetry=1`) deliberately
// bypasses the result cache: the export is a per-record side effect a
// cached Result cannot replay (the same rule that keeps runs with a
// telemetry sink out of the cache in internal/sim), so each streaming
// request executes its own run and forwards records to the client as
// they are sampled. A plain POST of a scenario with a telemetry section
// attaches no sink; its Result is the same without one, so it is cached
// like any other.
//
// Determinism scoping: this package is serving infrastructure, not
// simulation code — it runs *around* simulations, never inside them —
// so it sits outside desalint's SimPackages and may legitimately use
// wall-clock time and goroutines. Reproducibility of what it serves is
// enforced where it belongs: in the sim packages it calls into.
package server

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// maxBodyBytes bounds a POSTed scenario spec. Canonical scenario files
// are a few hundred bytes; explicit topologies grow linearly in node
// count, and 8 MiB comfortably covers a 10⁵-node placement.
const maxBodyBytes = 8 << 20

// retryAfter is the Retry-After hint of a 429 response, in seconds.
const retryAfter = "1"

// defaultTelemetryInterval matches netsim's -telemetry-interval default
// and is applied when a streaming request's scenario does not set one.
const defaultTelemetryInterval = 10 * time.Millisecond

// Result-source tags reported in the X-Simd-Source response header.
const (
	serveHit       = "hit"       // served from the content-addressed store
	serveRun       = "run"       // executed by this request (the singleflight leader)
	serveCoalesced = "coalesced" // shared another request's in-flight execution
)

// Config parameterizes a Server.
type Config struct {
	// Cache is the content-addressed result store; nil disables result
	// caching (every request runs or coalesces).
	Cache *cache.Store
	// QueueCap bounds the number of admitted-but-not-started runs; a full
	// queue rejects with 429. Non-positive selects 64.
	QueueCap int
	// Concurrency is the number of simultaneous simulation executions;
	// non-positive selects GOMAXPROCS (one run per core).
	Concurrency int
}

// Stats is the counters snapshot served at /v1/stats.
type Stats struct {
	// CacheHits and CacheMisses count result-path lookups against the
	// content-addressed store (POST bodies and GET-by-key re-serves): a
	// hit was served without simulating, a miss executed a run.
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	// Coalesced counts requests that shared another request's in-flight
	// execution instead of running themselves.
	Coalesced uint64 `json:"coalesced"`
	// Executed counts simulations actually run by this process.
	Executed uint64 `json:"executed"`
	// Rejected counts admissions refused with 429 (queue full).
	Rejected uint64 `json:"rejected"`
	// TelemetryStreams counts completed streaming-export requests.
	TelemetryStreams uint64 `json:"telemetryStreams"`
	// QueueDepth and Inflight describe the pool right now: runs admitted
	// but not started, and runs executing.
	QueueDepth int `json:"queueDepth"`
	Inflight   int `json:"inflight"`
	// QueueCap and Concurrency echo the resolved configuration: queue
	// bound and worker-pool size.
	QueueCap    int `json:"queueCap"`
	Concurrency int `json:"concurrency"`
}

// Server is the daemon: an http.Handler plus the execution pool behind
// it. Construct with New; call Close after the HTTP server has drained.
type Server struct {
	cfg   Config
	queue *queue
	sf    group

	// runFn executes one scenario; tests substitute failures and
	// barriers here without touching the HTTP surface.
	runFn func(sim.Scenario, sim.Options) (*sim.Result, error)

	counters struct {
		hits, misses, coalesced, executed, rejected, streams atomicCounter
	}

	mux *http.ServeMux
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:   cfg,
		queue: newQueue(cfg.Concurrency, cfg.QueueCap),
		runFn: sim.RunScenario,
		mux:   http.NewServeMux(),
	}
	s.sf.onShare = func() { s.counters.coalesced.add(1) }
	s.mux.HandleFunc("POST /v1/runs", s.handlePostRun)
	s.mux.HandleFunc("GET /v1/runs/{key}", s.handleGetRun)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the worker pool. Call only after the HTTP server has
// stopped accepting requests and in-flight handlers have returned
// (http.Server.Shutdown provides exactly that ordering).
func (s *Server) Close() { s.queue.close() }

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	return Stats{
		CacheHits:        s.counters.hits.load(),
		CacheMisses:      s.counters.misses.load(),
		Coalesced:        s.counters.coalesced.load(),
		Executed:         s.counters.executed.load(),
		Rejected:         s.counters.rejected.load(),
		TelemetryStreams: s.counters.streams.load(),
		QueueDepth:       s.queue.depth(),
		Inflight:         s.queue.inflight(),
		QueueCap:         s.cfg.QueueCap,
		Concurrency:      s.cfg.Concurrency,
	}
}

// errBusy is the admission-rejected sentinel mapped to 429.
var errBusy = fmt.Errorf("server: execution queue is full")

// runOnce executes sc on the bounded pool and returns the canonical
// result bytes. It is the only path that consumes a worker slot for a
// result request.
func (s *Server) runOnce(sc sim.Scenario) ([]byte, error) {
	type out struct {
		payload []byte
		err     error
	}
	done := make(chan out, 1)
	admitted := s.queue.submit(func() {
		s.counters.executed.add(1)
		res, err := s.runFn(sc, sim.Options{})
		if err != nil {
			done <- out{nil, err}
			return
		}
		payload, err := sim.EncodeResult(res)
		done <- out{payload, err}
	})
	if !admitted {
		s.counters.rejected.add(1)
		return nil, errBusy
	}
	o := <-done
	return o.payload, o.err
}

// handlePostRun is the main entry: parse, canonicalize, then
// singleflight → cache → queue → runner.
func (s *Server) handlePostRun(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, "server: read scenario: "+err.Error(), http.StatusBadRequest)
		return
	}
	sc, err := sim.ParseScenario(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := sc.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if r.URL.Query().Get("telemetry") == "1" {
		s.streamTelemetry(w, sc)
		return
	}
	key, err := sim.ScenarioKey(sc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	payload, source, shared, err := s.sf.do(key, func() ([]byte, string, error) {
		if s.cfg.Cache != nil {
			if p, ok := s.cfg.Cache.Get(key); ok {
				s.counters.hits.add(1)
				return p, serveHit, nil
			}
		}
		p, err := s.runOnce(sc)
		if err != nil {
			return nil, "", err
		}
		s.counters.misses.add(1)
		if s.cfg.Cache != nil {
			_ = s.cfg.Cache.Put(key, p) // best effort; the result stands
		}
		return p, serveRun, nil
	})
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	if shared {
		source = serveCoalesced
	}
	s.writeResult(w, key, source, payload)
}

// handleGetRun re-serves any cached result by its content address.
func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	key, err := cache.ParseKey(r.PathValue("key"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.cfg.Cache == nil {
		http.Error(w, "server: no result cache configured", http.StatusNotFound)
		return
	}
	payload, ok := s.cfg.Cache.Get(key)
	if !ok {
		s.counters.misses.add(1)
		http.Error(w, "server: no result for key "+key.String(), http.StatusNotFound)
		return
	}
	s.counters.hits.add(1)
	s.writeResult(w, key, serveHit, payload)
}

// writeResult emits one canonical result body. The trailing newline
// matches `netsim -scenario ... -json`, keeping the two byte-comparable
// with cmp/diff.
func (s *Server) writeResult(w http.ResponseWriter, key cache.Key, source string, payload []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Scenario-Key", key.String())
	h.Set("X-Simd-Source", source)
	h.Set("Content-Length", fmt.Sprint(len(payload)+1))
	w.WriteHeader(http.StatusOK)
	w.Write(payload)
	io.WriteString(w, "\n")
}

// writeRunError maps execution failures: backpressure is 429 with a
// Retry-After hint, everything else is 500.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	if err == errBusy {
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// streamTelemetry serves `?telemetry=1`: the run executes on the same
// bounded pool, but its export is forwarded to the client as records
// are sampled — one chunked-response flush per line — instead of a
// result body at the end. Never cached, never coalesced: the stream is
// a per-client side effect.
func (s *Server) streamTelemetry(w http.ResponseWriter, sc sim.Scenario) {
	if !sc.Telemetry.Enabled() {
		sc.Telemetry.Interval = sim.Duration(defaultTelemetryInterval)
		if err := sc.Validate(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	var flush func() error
	if fl, ok := w.(http.Flusher); ok {
		flush = func() error { fl.Flush(); return nil }
	}
	sink := telemetry.NewStreamWriter(w, flush)
	// The header must be final before the worker goroutine can touch w:
	// ResponseWriter is not safe for concurrent use, and the first record
	// the worker writes commits whatever headers are set. (http.Error
	// below overrides it again on the rejection path.)
	w.Header().Set("Content-Type", "application/x-ndjson")
	done := make(chan error, 1)
	admitted := s.queue.submit(func() {
		s.counters.executed.add(1)
		_, err := s.runFn(sc, sim.Options{Telemetry: sink})
		done <- err
	})
	if !admitted {
		s.counters.rejected.add(1)
		s.writeRunError(w, errBusy)
		return
	}
	// The first sampled record commits the 200 and starts the chunked
	// body; the handler only parks here so the connection stays open for
	// the worker writing to it.
	if err := <-done; err != nil {
		if !sink.Wrote() {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		// Mid-stream failures (including a vanished client) can only
		// truncate the export; the missing final records are the signal.
		return
	}
	s.counters.streams.add(1)
}

// handleStats serves the counters snapshot.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Stats())
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}
