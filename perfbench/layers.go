package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/des"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Replay sample sizes: how many probe scenarios get the fast-forward
// reference, the telemetry run and the HTTP round trips.
const (
	ffProbes     = 40
	telProbes    = 8
	serverProbes = 4
	serverHits   = 5
)

// perCall times fn repeatedly, for at least 20 ms and three calls or at
// most 200 calls, and returns the mean time of one call in µs.
func perCall(fn func() error) (float64, error) {
	start := time.Now()
	n := 0
	for n < 200 && (n < 3 || time.Since(start) < 20*time.Millisecond) {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n), nil
}

// simStats are the public counters of one finished run.
type simStats struct {
	events, frames               uint64
	airtime                      float64
	handshakes, rts, ctsTimeouts int64
}

func statsOf(s *sim.Sim, res *sim.Result) simStats {
	st := simStats{events: s.Sched.Executed(), airtime: s.Channel.TotalTxAirtime().Seconds()}
	for _, ft := range []phy.FrameType{phy.RTS, phy.CTS, phy.Data, phy.ACK} {
		st.frames += uint64(s.Channel.TxCount(ft))
	}
	for _, n := range res.NodeStats {
		st.handshakes += n.Successes
		st.rts += n.RTSSent
		st.ctsTimeouts += n.CTSTimeouts
	}
	return st
}

// timedRun builds and runs sc, timing the two calls separately.
func timedRun(sc sim.Scenario, workers int) (*sim.Sim, *sim.Result, time.Duration, time.Duration, error) {
	t0 := time.Now()
	s, err := sim.Build(sc, sim.Options{Workers: workers})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	build := time.Since(t0)
	t1 := time.Now()
	res, err := s.Run()
	return s, res, build, time.Since(t1), err
}

// countingSink counts a telemetry export and notes when its first record
// arrived.
type countingSink struct {
	start   time.Time
	firstMs float64
	records int
	bytes   int
}

func (c *countingSink) WriteHeader(h telemetry.Header) error { return c.add(h) }

func (c *countingSink) WriteRecord(r telemetry.Record) error {
	if c.records == 0 {
		c.firstMs = msSince(c.start)
	}
	c.records++
	return c.add(r)
}

func (c *countingSink) add(v any) error {
	b, err := json.Marshal(v)
	c.bytes += len(b) + 1
	return err
}

// probeLayers replays the probe scenarios one layer call at a time and
// returns the per-layer metrics they measure.
func probeLayers(e env, scs []sim.Scenario) (map[string]float64, error) {
	vals := make(map[string]float64)
	var (
		parseUs, keyUs, encodeUs, putUs, hitUs, diskUs, missUs []float64
		buildMs, runMs, buildAllocs, runAllocMB                []float64
		firstMs, telRecords, telBytes, telOverhead             []float64
		sum, seq                                               simStats
		seqRunNs                                               float64
		ffOn, ffOff                                            uint64
		divergent, partitions                                  int
	)
	dir, err := os.MkdirTemp(e.work, "probe-cache-")
	if err != nil {
		return vals, err
	}
	defer os.RemoveAll(dir)
	store, err := cache.NewStore(dir, 0)
	if err != nil {
		return vals, err
	}
	for k, sc := range scs {
		canon, err := sim.MarshalScenario(sc)
		if err != nil {
			return vals, err
		}
		us, err := perCall(func() error {
			p, err := sim.ParseScenario(canon)
			if err != nil {
				return err
			}
			return p.Validate()
		})
		if err != nil {
			return vals, err
		}
		parseUs = append(parseUs, us)
		key, err := sim.ScenarioKey(sc)
		if err != nil {
			return vals, err
		}
		us, _ = perCall(func() error { _, err := sim.ScenarioKey(sc); return err })
		keyUs = append(keyUs, us)

		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		s, err := sim.Build(sc, sim.Options{Workers: e.workers})
		if err != nil {
			return vals, err
		}
		build := time.Since(t0)
		runtime.ReadMemStats(&m1)
		t1 := time.Now()
		res, err := s.Run()
		if err != nil {
			return vals, err
		}
		run := time.Since(t1)
		runtime.ReadMemStats(&m2)
		buildMs = append(buildMs, float64(build.Nanoseconds())/1e6)
		runMs = append(runMs, float64(run.Nanoseconds())/1e6)
		buildAllocs = append(buildAllocs, float64(m1.Mallocs-m0.Mallocs))
		runAllocMB = append(runAllocMB, float64(m2.TotalAlloc-m1.TotalAlloc)/1e6)
		st := statsOf(s, res)
		sum.add(st)
		partitions = max(partitions, s.Partitions())
		if s.Partitions() == 1 {
			seq.add(st)
			seqRunNs += float64(run.Nanoseconds())
		}
		payload, err := sim.EncodeResult(res)
		if err != nil {
			return vals, err
		}
		us, _ = perCall(func() error { _, err := sim.EncodeResult(res); return err })
		encodeUs = append(encodeUs, us)

		us, err = perCall(func() error { return store.Put(key, payload) })
		if err != nil {
			return vals, err
		}
		putUs = append(putUs, us)
		us, _ = perCall(func() error { store.Get(key); return nil })
		hitUs = append(hitUs, us)
		us, err = perCall(func() error {
			fresh, err := cache.NewStore(dir, 0)
			if err == nil {
				if _, ok := fresh.Get(key); !ok {
					err = fmt.Errorf("cache: stored key missing on disk")
				}
			}
			return err
		})
		if err != nil {
			return vals, err
		}
		diskUs = append(diskUs, us)
		absent := cache.NewKeyBuilder().Write("absent", canon).Key()
		us, _ = perCall(func() error { store.Get(absent); return nil })
		missUs = append(missUs, us)

		if k == 0 {
			// The same scenario on the sequential kernel: for a partitioned
			// scenario this is the comparison the partitioned kernel must
			// win, and the run that counts its events. Two warm runs of
			// each layout, alternated, keep a cold first run out of it.
			off := sc
			off.Partition = "off"
			var offRuns, autoRuns []float64
			for r := 0; r < 2; r++ {
				offSim, offRes, _, offRun, err := timedRun(off, e.workers)
				if err != nil {
					return vals, err
				}
				_, _, _, autoRun, err := timedRun(sc, e.workers)
				if err != nil {
					return vals, err
				}
				offRuns = append(offRuns, offRun.Seconds())
				autoRuns = append(autoRuns, autoRun.Seconds())
				if r == 0 && s.Partitions() > 1 {
					seq.add(statsOf(offSim, offRes))
					seqRunNs += float64(offRun.Nanoseconds())
				}
			}
			vals["sim.partition_speedup"] = median(offRuns) / median(autoRuns)
		}
		if k < ffProbes {
			flip := sc
			flip.FastForward = !sc.FastForward
			fs, fres, _, _, err := timedRun(flip, e.workers)
			if err != nil {
				return vals, err
			}
			fp, err := sim.EncodeResult(fres)
			if err != nil {
				return vals, err
			}
			on, offEv := s.Sched.Executed(), fs.Sched.Executed()
			if !sc.FastForward {
				on, offEv = offEv, on
			}
			ffOn += on
			ffOff += offEv
			if !bytes.Equal(payload, fp) {
				divergent++
			}
		}
		if k < telProbes {
			tel := sc
			if !tel.Telemetry.Enabled() {
				tel.Telemetry.Interval = sim.Duration(10 * des.Millisecond)
			}
			sink := &countingSink{start: time.Now()}
			if _, err := sim.RunScenario(tel, sim.Options{Workers: e.workers, Telemetry: sink}); err != nil {
				return vals, err
			}
			took := time.Since(sink.start)
			firstMs = append(firstMs, sink.firstMs)
			telRecords = append(telRecords, float64(sink.records))
			telBytes = append(telBytes, float64(sink.bytes))
			telOverhead = append(telOverhead, took.Seconds()/(build+run).Seconds())
		}
	}
	hitMs, missMs, err := probeServer(e, scs[:min(serverProbes, len(scs))])
	if err != nil {
		return vals, err
	}

	vals["sim.build_ms"] = median(buildMs)
	vals["sim.build_allocs"] = median(buildAllocs)
	vals["sim.run_ms"] = median(runMs)
	vals["sim.run_alloc_mb"] = median(runAllocMB)
	vals["sim.partitions"] = float64(partitions)
	vals["des.events"] = float64(seq.events)
	if seq.events > 0 {
		vals["des.ns_per_event"] = seqRunNs / float64(seq.events)
	}
	if seq.frames > 0 {
		vals["des.events_per_frame"] = float64(seq.events) / float64(seq.frames)
	}
	vals["phy.frames"] = float64(sum.frames)
	vals["phy.airtime_s"] = sum.airtime
	vals["mac.handshakes"] = float64(sum.handshakes)
	if sum.rts > 0 {
		vals["mac.handshake_yield"] = float64(sum.handshakes) / float64(sum.rts)
	}
	vals["mac.cts_timeouts"] = float64(sum.ctsTimeouts)
	if ffOff > 0 {
		vals["mac.ff_event_ratio"] = float64(ffOn) / float64(ffOff)
	}
	vals["mac.ff_divergent_runs"] = float64(divergent)
	vals["server.parse_us"] = median(parseUs)
	vals["server.key_us"] = median(keyUs)
	vals["server.encode_us"] = median(encodeUs)
	vals["server.hit_ms"] = hitMs
	vals["server.miss_ms"] = missMs
	vals["cache.put_us"] = median(putUs)
	vals["cache.get_hit_us"] = median(hitUs)
	vals["cache.get_disk_us"] = median(diskUs)
	vals["cache.get_miss_us"] = median(missUs)
	vals["server.http_self_us"] = hitMs*1e3 - vals["server.parse_us"] - vals["server.key_us"] - vals["cache.get_hit_us"]
	vals["telemetry.first_record_ms"] = median(firstMs)
	vals["telemetry.records_per_run"] = median(telRecords)
	vals["telemetry.bytes_per_run"] = median(telBytes)
	vals["telemetry.overhead_ratio"] = median(telOverhead)
	return vals, nil
}

func (s *simStats) add(o simStats) {
	s.events += o.events
	s.frames += o.frames
	s.airtime += o.airtime
	s.handshakes += o.handshakes
	s.rts += o.rts
	s.ctsTimeouts += o.ctsTimeouts
}

// probeServer posts each scenario to a fresh in-process daemon once
// (executed) and then serverHits more times (cache hits) and returns the
// median latency of each kind in ms.
func probeServer(e env, scs []sim.Scenario) (hitMs, missMs float64, err error) {
	d, err := startDaemon(e.work, 1)
	if err != nil {
		return 0, 0, err
	}
	defer d.close()
	var hits, misses []float64
	for _, sc := range scs {
		body, err := sim.MarshalScenario(sc)
		if err != nil {
			return 0, 0, err
		}
		for r := 0; r <= serverHits; r++ {
			t0 := time.Now()
			resp, err := d.post(body, false)
			if err != nil {
				return 0, 0, err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				return 0, 0, err
			}
			ms := msSince(t0)
			switch src := resp.Header.Get("X-Simd-Source"); src {
			case "hit":
				hits = append(hits, ms)
			case "run":
				misses = append(misses, ms)
			default:
				return 0, 0, fmt.Errorf("probe request served as %q", src)
			}
		}
	}
	return median(hits), median(misses), nil
}

// cpuShares reduces a CPU profile to the flat share of each cpu_share
// module with `go tool pprof -top`.
func cpuShares(profile, work string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-edgefraction=0", profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+work)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseTop(string(out)), nil
}

// parseTop sums pprof -top's flat% column by module.
func parseTop(out string) map[string]float64 {
	shares := make(map[string]float64)
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		shares[moduleOf(strings.Join(f[5:], " "))] += pct / 100
	}
	return shares
}

// simModules are the repository packages with a cpu_share group of their
// own; the rest of the repository counts as "other".
var simModules = map[string]bool{
	"des": true, "phy": true, "mac": true, "neighbor": true, "traffic": true, "mobility": true,
	"sim": true, "experiments": true, "telemetry": true, "cache": true, "server": true,
}

// moduleOf maps a profiled function name to its cpu_share group.
func moduleOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	if dot := strings.Index(fn[strings.LastIndex(fn, "/")+1:], "."); dot >= 0 {
		pkg = fn[:strings.LastIndex(fn, "/")+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.SplitN(strings.TrimPrefix(pkg, "repro/internal/"), "/", 2)[0]
		if simModules[name] {
			return name
		}
		return "other"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg != "" && pkg != "main" && !strings.HasPrefix(pkg, "repro") && !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		return "stdlib"
	}
	return "other"
}
