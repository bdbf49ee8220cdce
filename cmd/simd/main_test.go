package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/sim"
)

// syncBuffer lets the test read the daemon's stdout while run() is
// still writing to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonLifecycle boots the daemon on a free port, serves a run,
// and shuts it down gracefully: run() must print the resolved listen
// address, answer /healthz, serve the canonical result bytes for a
// POSTed scenario, and return nil (exit 0) on SIGTERM.
func TestDaemonLifecycle(t *testing.T) {
	var stdout syncBuffer
	sigs := make(chan os.Signal, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-addr", "127.0.0.1:0",
			"-cache", t.TempDir(),
		}, &stdout, sigs)
	}()

	// The readiness line carries the resolved port — the same contract
	// make simd-smoke scripts against.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no listening line; stdout so far: %q", stdout.String())
		}
		for _, line := range strings.Split(stdout.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "simd: listening on "); ok {
				addr = rest
			}
		}
		select {
		case err := <-errCh:
			t.Fatalf("daemon exited early: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("healthz: status %d body %q", resp.StatusCode, body)
	}

	sc := sim.Scenario{
		Scheme:       "DRTS-DCTS",
		BeamwidthDeg: 60,
		Seed:         3,
		Duration:     sim.Duration(40 * time.Millisecond),
		Topology:     sim.TopologySpec{N: 2},
	}
	spec, err := sim.MarshalScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/runs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d: %s", resp.StatusCode, served)
	}
	res, err := sim.RunScenario(sc, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := sim.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(payload, '\n'); !bytes.Equal(served, want) {
		t.Errorf("served bytes differ from local run (%d vs %d bytes)", len(served), len(want))
	}

	sigs <- syscall.SIGTERM
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down after SIGTERM")
	}
	if out := stdout.String(); !strings.Contains(out, "shutting down") {
		t.Errorf("stdout lacks shutdown line: %q", out)
	}
}

// TestDaemonBadFlags pins the error paths that must exit non-zero. A
// bad listen address must fail before the cache directory is created.
func TestDaemonBadFlags(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "c")
	if err := run([]string{"-addr", "256.0.0.1:bogus", "-cache", cacheDir}, io.Discard, nil); err == nil {
		t.Error("bad listen address: want error")
	}
	if _, err := os.Stat(cacheDir); !os.IsNotExist(err) {
		t.Errorf("bad listen address left the cache directory behind (stat: %v)", err)
	}
	if err := run([]string{"-nosuchflag"}, io.Discard, nil); err == nil {
		t.Error("unknown flag: want error")
	}
}

// TestHTTPServerTimeouts pins the connection bounds of the server run
// builds: a stalled header read or an idle keep-alive connection is
// dropped, and no write deadline cuts off a long telemetry stream.
func TestHTTPServerTimeouts(t *testing.T) {
	s := newHTTPServer(http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v: both must be positive", s.ReadHeaderTimeout, s.IdleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout %v would cut off telemetry streams and long runs", s.WriteTimeout)
	}
}
