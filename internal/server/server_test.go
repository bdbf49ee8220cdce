package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// testScenario is a small, fast scenario (18 nodes, 40 ms) whose seed
// parameterizes the content address.
func testScenario(seed int64) sim.Scenario {
	return sim.Scenario{
		Scheme:       "DRTS-DCTS",
		BeamwidthDeg: 60,
		Seed:         seed,
		Duration:     sim.Duration(40 * time.Millisecond),
		Topology:     sim.TopologySpec{N: 2},
	}
}

func scenarioBody(t *testing.T, sc sim.Scenario) []byte {
	t.Helper()
	b, err := sim.MarshalScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// localBody computes the bytes the daemon must serve: the canonical
// result encoding of a local run, plus the trailing newline.
func localBody(t *testing.T, sc sim.Scenario) []byte {
	t.Helper()
	res, err := sim.RunScenario(sc, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := sim.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return append(payload, '\n')
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newStore(t *testing.T) *cache.Store {
	t.Helper()
	store, err := cache.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestServedResultMatchesLocalRun is the correctness gate: the POSTed
// body must be byte-identical to a local run of the same spec, a repeat
// POST must be a cache hit serving the very same bytes, and GET-by-key
// must re-serve them.
func TestServedResultMatchesLocalRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Cache: newStore(t)})
	sc := testScenario(7)
	want := localBody(t, sc)

	resp := post(t, ts.URL+"/v1/runs", scenarioBody(t, sc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	if src := resp.Header.Get("X-Simd-Source"); src != serveRun {
		t.Errorf("first POST source = %q, want %q", src, serveRun)
	}
	key := resp.Header.Get("X-Scenario-Key")
	wantKey, err := sim.ScenarioKey(sc)
	if err != nil {
		t.Fatal(err)
	}
	if key != wantKey.String() {
		t.Errorf("X-Scenario-Key = %s, want %s", key, wantKey)
	}
	if got := readBody(t, resp); !bytes.Equal(got, want) {
		t.Errorf("served body differs from local run:\n got %s\nwant %s", got, want)
	}

	resp = post(t, ts.URL+"/v1/runs", scenarioBody(t, sc))
	if src := resp.Header.Get("X-Simd-Source"); src != serveHit {
		t.Errorf("repeat POST source = %q, want %q", src, serveHit)
	}
	if got := readBody(t, resp); !bytes.Equal(got, want) {
		t.Errorf("cache-served body differs from local run")
	}

	getResp, err := http.Get(ts.URL + "/v1/runs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d", getResp.StatusCode)
	}
	if got := readBody(t, getResp); !bytes.Equal(got, want) {
		t.Errorf("GET-by-key body differs from local run")
	}

	st := s.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 2 || st.Executed != 1 {
		t.Errorf("stats = %+v, want 1 miss, 2 hits, 1 executed", st)
	}
}

// TestConcurrentIdenticalPostsExecuteOnce is the singleflight + cache
// contract under the race detector: N concurrent POSTs of one scenario
// produce exactly one Runner execution and N identical bodies —
// requests overlapping the leader coalesce, requests after it hit the
// cache, and no interleaving runs the simulation twice.
func TestConcurrentIdenticalPostsExecuteOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{Cache: newStore(t)})
	sc := testScenario(11)
	body := scenarioBody(t, sc)
	want := localBody(t, sc)

	const n = 12
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Errorf("request %d: body differs from local run", i)
		}
	}
	if st := s.Stats(); st.Executed != 1 {
		t.Errorf("executed = %d, want exactly 1 (stats %+v)", st.Executed, st)
	}
}

// TestCoalescingSharesLeaderExecution pins the in-flight path
// deterministically: with the runner blocked, every follower must join
// the leader's call (coalesced counter) and receive the leader's bytes.
func TestCoalescingSharesLeaderExecution(t *testing.T) {
	s, ts := newTestServer(t, Config{Cache: newStore(t)})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	real := s.runFn
	s.runFn = func(sc sim.Scenario, opts sim.Options) (*sim.Result, error) {
		once.Do(func() { close(entered) })
		<-release
		return real(sc, opts)
	}

	sc := testScenario(13)
	body := scenarioBody(t, sc)
	const followers = 4
	results := make(chan []byte, followers+1)
	errs := make(chan error, followers+1)
	request := func() {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			errs <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Errorf("status %d", resp.StatusCode)
			return
		}
		b, _ := io.ReadAll(resp.Body)
		results <- b
	}
	go request()
	<-entered
	for i := 0; i < followers; i++ {
		go request()
	}
	// Followers have joined once the coalesced counter says so; only then
	// is the leader released, so exactly one execution is possible.
	for s.Stats().Coalesced < followers {
		time.Sleep(time.Millisecond)
	}
	close(release)

	var bodies [][]byte
	for len(bodies) < followers+1 {
		select {
		case b := <-results:
			bodies = append(bodies, b)
		case err := <-errs:
			t.Fatal(err)
		case <-time.After(30 * time.Second):
			t.Fatal("timed out waiting for coalesced responses")
		}
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("response %d differs from leader's", i)
		}
	}
	st := s.Stats()
	if st.Executed != 1 || st.Coalesced != followers {
		t.Errorf("stats = %+v, want 1 executed and %d coalesced", st, followers)
	}
}

// TestFailedRunDoesNotPoisonCacheOrWedgeWaiters drives the error path:
// a failing run must 500 the leader AND every coalesced waiter (no
// goroutine left blocked), must leave the cache empty, and the next
// request for the same scenario must run fresh and succeed.
func TestFailedRunDoesNotPoisonCacheOrWedgeWaiters(t *testing.T) {
	s, ts := newTestServer(t, Config{Cache: newStore(t)})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	real := s.runFn
	s.runFn = func(sim.Scenario, sim.Options) (*sim.Result, error) {
		once.Do(func() { close(entered) })
		<-release
		return nil, fmt.Errorf("injected kernel failure")
	}

	sc := testScenario(17)
	body := scenarioBody(t, sc)
	const followers = 3
	statuses := make(chan int, followers+1)
	request := func() {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			statuses <- 0
			return
		}
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go request()
	<-entered
	for i := 0; i < followers; i++ {
		go request()
	}
	for s.Stats().Coalesced < followers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < followers+1; i++ {
		select {
		case code := <-statuses:
			if code != http.StatusInternalServerError {
				t.Errorf("got status %d, want 500", code)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a waiter wedged: no response after the failed run")
		}
	}

	// The failure must not have been cached under the scenario's key.
	key, err := sim.ScenarioKey(sc)
	if err != nil {
		t.Fatal(err)
	}
	getResp, err := http.Get(ts.URL + "/v1/runs/" + key.String())
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Errorf("GET after failed run: status %d, want 404", getResp.StatusCode)
	}

	// Recovery: the singleflight slot is free and the cache unpoisoned,
	// so a fresh request with the real runner succeeds.
	s.runFn = real
	resp := post(t, ts.URL+"/v1/runs", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery POST status = %d", resp.StatusCode)
	}
	if got, want := readBody(t, resp), localBody(t, sc); !bytes.Equal(got, want) {
		t.Errorf("recovery body differs from local run")
	}
}

// TestBackpressure429 fills the bounded pool and checks the admission
// contract: a full queue answers 429 with a Retry-After hint and counts
// the rejection; distinct scenarios do not coalesce around it.
func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{Concurrency: 1, QueueCap: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.runFn = func(sc sim.Scenario, opts sim.Options) (*sim.Result, error) {
		started <- struct{}{}
		<-release
		return sim.RunScenario(sc, opts)
	}

	codes := make(chan int, 2)
	for seed := int64(21); seed <= 22; seed++ {
		body := scenarioBody(t, testScenario(seed))
		go func() {
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	// One run executing, one admitted and queued: the pool is full.
	<-started
	for s.Stats().QueueDepth < 1 {
		time.Sleep(time.Millisecond)
	}

	resp := post(t, ts.URL+"/v1/runs", scenarioBody(t, testScenario(23)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity POST status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("admitted request finished with status %d", code)
		}
	}
}

// TestTelemetryStreaming checks the live-export path: the chunked
// response must be a valid telemetry export whose bytes are identical
// to a local streaming run of the same spec, and it must bypass the
// result cache.
func TestTelemetryStreaming(t *testing.T) {
	s, ts := newTestServer(t, Config{Cache: newStore(t)})
	sc := testScenario(29)
	sc.Telemetry.Interval = sim.Duration(10 * time.Millisecond)

	var local bytes.Buffer
	localSink := telemetry.NewStreamWriter(&local, nil)
	if _, err := sim.RunScenario(sc, sim.Options{Telemetry: localSink}); err != nil {
		t.Fatal(err)
	}

	resp := post(t, ts.URL+"/v1/runs?telemetry=1", scenarioBody(t, sc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streaming POST status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	got := readBody(t, resp)
	if !bytes.Equal(got, local.Bytes()) {
		t.Errorf("streamed export differs from local run (%d vs %d bytes)", len(got), local.Len())
	}
	h, recs, err := telemetry.ReadAll(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("streamed bytes are not a valid export: %v", err)
	}
	if h.Format != telemetry.FormatV1 || len(recs) == 0 {
		t.Errorf("export header %+v with %d records", h, len(recs))
	}
	st := s.Stats()
	if st.TelemetryStreams != 1 || st.Executed != 1 {
		t.Errorf("stats = %+v, want 1 stream and 1 execution", st)
	}
	if st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Errorf("telemetry streaming touched the result cache: %+v", st)
	}

	// A scenario without its own telemetry section gets the default
	// sampling interval rather than a rejection.
	resp = post(t, ts.URL+"/v1/runs?telemetry=1", scenarioBody(t, testScenario(31)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default-interval streaming POST status = %d", resp.StatusCode)
	}
	if _, _, err := telemetry.ReadAll(bytes.NewReader(readBody(t, resp))); err != nil {
		t.Errorf("default-interval stream invalid: %v", err)
	}
}

// TestTelemetryScenarioCached: a plain POST of a scenario with a
// telemetry section attaches no sink, and the section leaves the Result
// unchanged, so the repeat POST is a cache hit serving the same bytes.
func TestTelemetryScenarioCached(t *testing.T) {
	s, ts := newTestServer(t, Config{Cache: newStore(t)})
	sc, err := sim.LoadScenario(filepath.Join("..", "sim", "testdata", "telemetry-trajectory.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := localBody(t, sc)
	for i, wantSrc := range []string{serveRun, serveHit} {
		resp := post(t, ts.URL+"/v1/runs", scenarioBody(t, sc))
		if src := resp.Header.Get("X-Simd-Source"); src != wantSrc {
			t.Errorf("POST %d source = %q, want %q", i, src, wantSrc)
		}
		if got := readBody(t, resp); !bytes.Equal(got, want) {
			t.Errorf("POST %d body differs from local run", i)
		}
	}
	if st := s.Stats(); st.Executed != 1 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 executed", st)
	}
}

// TestBadRequests covers the admission layer's rejections.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	trailing, err := os.ReadFile(filepath.Join("..", "sim", "testdata", "bad", "trailing-data.json"))
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"not json":        "{",
		"unknown field":   `{"scheme":"drts-dcts","beamwidthDeg":60,"seed":1,"duration":"10ms","topology":{"n":2},"bogus":1}`,
		"validation fail": `{"scheme":"drts-dcts","beamwidthDeg":60,"seed":1,"duration":"10ms","topology":{"n":1}}`,
		"trailing data":   string(trailing),
	} {
		resp := post(t, ts.URL+"/v1/runs", []byte(body))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	getResp, err := http.Get(ts.URL + "/v1/runs/nothex")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET bad key: status %d, want 400", getResp.StatusCode)
	}
}

// TestHealthzAndStats pins the probe endpoints' shapes.
func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueCap: 5, Concurrency: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(readBody(t, resp)); got != "ok\n" {
		t.Errorf("healthz body = %q", got)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readBody(t, resp))
	for _, want := range []string{`"cacheHits":0`, `"queueCap":5`, `"concurrency":1`} {
		if !strings.Contains(body, want) {
			t.Errorf("stats body %s lacks %s", body, want)
		}
	}
}

// TestDefaultConcurrency: a non-positive Concurrency runs one
// simulation per core.
func TestDefaultConcurrency(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if got, want := s.Stats().Concurrency, runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default concurrency %d, want GOMAXPROCS %d", got, want)
	}
}

// TestQueueCloseRejectsSubmissions pins the shutdown ordering contract.
func TestQueueCloseRejectsSubmissions(t *testing.T) {
	q := newQueue(1, 1)
	done := make(chan struct{})
	if !q.submit(func() { close(done) }) {
		t.Fatal("empty queue rejected a job")
	}
	<-done
	q.close()
	if q.submit(func() {}) {
		t.Error("closed queue admitted a job")
	}
	q.close() // idempotent
}

// FuzzPostRun: POST /v1/runs never panics. It answers 400 exactly when
// the body is over the cap or sim.ParseScenario or Validate rejects it,
// and 200 otherwise, with the stub run's canonical encoding plus a
// newline and the parsed scenario's ScenarioKey. The run is a stub that
// returns a fixed Result, so the target exercises the request path and
// not the simulator. The seeds are the committed scenario files, valid
// and bad. Before fuzzing, a valid body padded to exactly the cap and
// one a byte longer pin the cap's boundary, which mutation does not
// reach.
//
//	go test ./internal/server -run '^$' -fuzz FuzzPostRun -fuzztime 60s -parallel 2
func FuzzPostRun(f *testing.F) {
	var seeds []string
	for _, pattern := range []string{"*.json", filepath.Join("bad", "*.json")} {
		paths, err := filepath.Glob(filepath.Join("..", "sim", "testdata", pattern))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, paths...)
	}
	if len(seeds) == 0 {
		f.Fatal("no seed scenarios found")
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	stub := &sim.Result{ThroughputBps: []float64{151e3, 149.5e3}, DelaySec: []float64{0.02, 0.021},
		CollisionRatio: []float64{0.1, 0.125}, Jain: 0.99, SpatialReuse: 1.5}
	payload, err := sim.EncodeResult(stub)
	if err != nil {
		f.Fatal(err)
	}
	want := append(payload, '\n')
	s := New(Config{Concurrency: 1})
	f.Cleanup(s.Close)
	s.runFn = func(sim.Scenario, sim.Options) (*sim.Result, error) { return stub, nil }

	check := func(tb testing.TB, body []byte) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
		sc, err := sim.ParseScenario(body)
		if err == nil {
			err = sc.Validate()
		}
		if len(body) > maxBodyBytes || err != nil {
			if rec.Code != http.StatusBadRequest {
				tb.Fatalf("status %d for a rejected body (%d bytes, %v), want 400", rec.Code, len(body), err)
			}
			return
		}
		if rec.Code != http.StatusOK {
			tb.Fatalf("status %d for a valid scenario, want 200: %s", rec.Code, rec.Body.Bytes())
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			tb.Fatalf("body %q, want %q", rec.Body.Bytes(), want)
		}
		key, err := sim.ScenarioKey(sc)
		if err != nil {
			tb.Fatalf("ScenarioKey of a served scenario: %v", err)
		}
		if got := rec.Header().Get("X-Scenario-Key"); got != key.String() {
			tb.Fatalf("X-Scenario-Key = %s, want %s", got, key)
		}
	}

	valid, err := os.ReadFile(filepath.Join("..", "sim", "testdata", "paper-drts-dcts.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, size := range []int{maxBodyBytes, maxBodyBytes + 1} {
		check(f, append(bytes.Repeat([]byte(" "), size-len(valid)), valid...))
	}

	f.Fuzz(func(t *testing.T, body []byte) { check(t, body) })
}
