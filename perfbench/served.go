package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// verifySample is how many distinct served keys are re-run locally after
// a pass and compared byte for byte.
const verifySample = 32

// daemon is an in-process simd: server.New over a fresh cache.Store in a
// temporary directory, behind a real loopback listener.
type daemon struct {
	dir    string
	store  *cache.Store
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

// startDaemon brings the daemon up and waits for its first /healthz 200.
// clients bounds the keep-alive connections the client keeps open.
func startDaemon(work string, clients int) (*daemon, error) {
	dir, err := os.MkdirTemp(work, "simd-cache-")
	if err != nil {
		return nil, err
	}
	store, err := cache.NewStore(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := server.New(server.Config{Cache: store})
	d := &daemon{
		dir: dir, store: store, srv: srv, ts: httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
	}
	resp, err := d.client.Get(d.ts.URL + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// post sends one scenario and returns the response, which the caller
// must close. Non-200 responses are returned as errors.
func (d *daemon) post(body []byte, stream bool) (*http.Response, error) {
	url := d.ts.URL + "/v1/runs"
	if stream {
		url += "?telemetry=1"
	}
	resp, err := d.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// close stops the listener, then the worker pool, and removes the cache
// directory.
func (d *daemon) close() {
	d.client.Transport.(*http.Transport).CloseIdleConnections()
	d.ts.Close()
	d.srv.Close()
	os.RemoveAll(d.dir)
}

// servedMix is one daemon plus the seeded request list it is driven
// with.
type servedMix struct {
	seed int64
	scs  []sim.Scenario
	reqs []request
	d    *daemon

	mu     sync.Mutex
	served map[string]servedBody // by X-Scenario-Key
}

// servedBody is the first body served under a key and the scenario that
// was requested.
type servedBody struct {
	body []byte
	sc   int
}

func prepareServedMix(e env, _ int) (instance, error) {
	scs, reqs, err := genServedMix(e)
	if err != nil {
		return nil, err
	}
	m := &servedMix{seed: e.seed, scs: scs, reqs: reqs, served: make(map[string]servedBody)}
	if m.d, err = startDaemon(e.work, e.workers); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *servedMix) size() int { return len(m.reqs) }

func (m *servedMix) op(i int, sp spanCtx) (opResult, error) {
	req := m.reqs[i]
	c := sp.begin("http.POST")
	start := time.Now()
	resp, err := m.d.post(req.body, req.stream)
	if err != nil {
		c.end()
		return opResult{}, err
	}
	defer resp.Body.Close()
	if req.stream {
		br := bufio.NewReader(resp.Body)
		first, err := br.ReadBytes('\n')
		firstMs := msSince(start)
		if err != nil {
			c.end()
			return opResult{}, fmt.Errorf("stream: first record: %w", err)
		}
		rest, err := io.ReadAll(br)
		ms := msSince(start)
		c.end()
		if err != nil {
			return opResult{}, fmt.Errorf("stream: %w", err)
		}
		body := append(first, rest...)
		return opResult{body: body, ms: ms, tag: "stream", firstMs: firstMs}, checkStream(body)
	}
	body, err := io.ReadAll(resp.Body)
	ms := msSince(start)
	c.end()
	if err != nil {
		return opResult{}, err
	}
	out := opResult{body: body, ms: ms, tag: resp.Header.Get("X-Simd-Source")}
	key := resp.Header.Get("X-Scenario-Key")
	m.mu.Lock()
	prev, seen := m.served[key]
	if !seen {
		m.served[key] = servedBody{body, req.sc}
	}
	m.mu.Unlock()
	if seen {
		// The first body for the key passed the checks below.
		if !bytes.Equal(prev.body, body) {
			return out, fmt.Errorf("request %d: two bodies served for key %s", i, key)
		}
		return out, nil
	}
	res, err := sim.DecodeResult(bytes.TrimSuffix(body, []byte("\n")))
	if err == nil {
		err = checkResult(res)
	}
	return out, err
}

// checkStream requires a well-formed export that ends its series with
// the aggregate record at the run's full duration.
func checkStream(body []byte) error {
	h, recs, err := telemetry.ReadAll(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind == telemetry.KindAgg {
			if recs[i].T != h.DurationNs {
				return fmt.Errorf("stream: last agg record at %d ns, run lasts %d ns", recs[i].T, h.DurationNs)
			}
			return nil
		}
	}
	return fmt.Errorf("stream: no agg record")
}

// probes are the eight most popular catalog scenarios.
func (m *servedMix) probes() []sim.Scenario {
	var out []sim.Scenario
	seen := make(map[int]bool)
	for _, r := range m.reqs {
		if !seen[r.sc] {
			seen[r.sc] = true
			out = append(out, m.scs[r.sc])
			if len(out) == 8 {
				break
			}
		}
	}
	return out
}

// verify checks every served X-Scenario-Key against sim.ScenarioKey of
// the scenario requested, then re-runs a seeded sample of distinct keys
// locally and compares the served bytes with sim.EncodeResult of the
// local run. A wrong key fails the op that received it, which was
// already attempted.
func (m *servedMix) verify() (attempted, failed int) {
	m.mu.Lock()
	served := make(map[string]servedBody, len(m.served))
	keys := make([]string, 0, len(m.served))
	for k, s := range m.served {
		served[k] = s
		keys = append(keys, k)
	}
	m.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		if want, err := sim.ScenarioKey(m.scs[served[k].sc]); err != nil || want.String() != k {
			failed++
		}
	}
	r := rand.New(rand.NewSource(m.seed ^ 0x5e1f))
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys[:min(verifySample, len(keys))] {
		attempted++
		s := served[k]
		res, err := sim.RunScenario(m.scs[s.sc], sim.Options{})
		var local []byte
		if err == nil {
			local, err = sim.EncodeResult(res)
		}
		if err != nil || !bytes.Equal(append(local, '\n'), s.body) {
			failed++
		}
	}
	return attempted, failed
}

func (m *servedMix) counters() serveCounters {
	st, cs := m.d.srv.Stats(), m.d.store.Stats()
	return serveCounters{
		executed: st.Executed, coalesced: st.Coalesced, rejected: st.Rejected,
		hits: cs.Hits, misses: cs.Misses, evictions: cs.Evictions,
	}
}

func (m *servedMix) close() { m.d.close() }

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
