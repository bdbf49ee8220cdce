package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many times a run prepares its workload to time
// set-up; the median is reported.
const setupReps = 25

// maxFailures caps the failure messages a report keeps.
const maxFailures = 10

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is the full record of one run, written by -out and read by
// -agree. The last line the command prints is its summary.
type runReport struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Nproc     int                    `json:"nproc"`
	GoVersion string                 `json:"go_version"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Digest    string                 `json:"result_digest"`
	Passes    int                    `json:"passes"`
	WarmupS   float64                `json:"warmup_s"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Detail holds the distributions behind the metrics: op latency,
	// set-up, and for served-mix the latency of each result source.
	Detail map[string]dist `json:"detail,omitempty"`
	// Spans is the traced run's self time per span name.
	Spans map[string]selfTime `json:"span_self_time,omitempty"`
}

// opLog collects what the ops of a run produced. Clients of a parallel
// workload record into it concurrently.
type opLog struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	latMs     []float64
	byTag     map[string][]float64
	firstMs   []float64
	hashes    map[int][sha256.Size]byte // result hash per op of input pass 0
}

func newOpLog() *opLog {
	return &opLog{byTag: make(map[string][]float64), hashes: make(map[int][sha256.Size]byte)}
}

func (l *opLog) fail(msg string) {
	l.failed++
	if len(l.failures) < maxFailures {
		l.failures = append(l.failures, msg)
	}
}

// record files one op's outcome. Ops of input pass 0 are run more than
// once (warm-up, later passes of a workload whose passes repeat, the
// post-run repeat); the first run fixes the op's result hash and a
// repetition whose bytes differ fails. Only timed ops add latencies.
func (l *opLog) record(inputPass, i int, res opResult, err error, timed bool) {
	h := sha256.Sum256(res.body)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.fail(fmt.Sprintf("input pass %d op %d: %v", inputPass, i, err))
		return
	}
	if inputPass == 0 {
		if prev, ok := l.hashes[i]; !ok {
			l.hashes[i] = h
		} else if prev != h {
			l.fail(fmt.Sprintf("op %d: result bytes differ from its first repetition", i))
			return
		}
	}
	if !timed {
		return
	}
	l.latMs = append(l.latMs, res.ms)
	if res.tag != "" {
		l.byTag[res.tag] = append(l.byTag[res.tag], res.ms)
	}
	if res.firstMs > 0 {
		l.firstMs = append(l.firstMs, res.firstMs)
	}
}

// digest is SHA-256 over the per-op result hashes of input pass 0 in op
// order: a speed-only change leaves it unchanged.
func (l *opLog) digest() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	ops := make([]int, 0, len(l.hashes))
	for i := range l.hashes {
		ops = append(ops, i)
	}
	sort.Ints(ops)
	h := sha256.New()
	for _, i := range ops {
		oh := l.hashes[i]
		fmt.Fprintf(h, "%d:", i)
		h.Write(oh[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runPass runs every op of inst once and returns the pass's wall time.
// A parallel workload drives it from e.workers closed-loop clients that
// each take the next unsent op as soon as their previous reply is in.
func runPass(w workload, e env, inst instance, inputPass int, log *opLog, tr *tracer, opBase int) time.Duration {
	n := inst.size()
	one := func(i int) {
		sp := spanCtx{t: tr, parent: -1, op: opBase + i}.begin("op")
		res, err := inst.op(i, sp)
		sp.end()
		log.record(inputPass, i, res, err, true)
	}
	if !w.parallel {
		// Each op starts from a collected heap, as one netsim or
		// experiments process would, so an op does not pay for the
		// previous op's garbage; the collection is not timed.
		var wall time.Duration
		for i := 0; i < n; i++ {
			runtime.GC()
			start := time.Now()
			one(i)
			wall += time.Since(start)
		}
		return wall
	}
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < e.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				one(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// phase is the outcome of timed passes.
type phase struct {
	passes   int
	ops      int
	wall     time.Duration // sum of the passes' op time, set-up excluded
	elapsed  time.Duration
	cpu      time.Duration // process user+system CPU time
	counters serveCounters
}

// runPhase runs whole passes, pass p on a freshly prepared instance of
// input pass p, until seconds have elapsed and at least minPasses ran.
// The last instance is checked with verify before it closes.
func runPhase(w workload, e env, seconds float64, minPasses int, log *opLog, tr *tracer) (phase, error) {
	var p phase
	cpu0 := cpuTime()
	start := time.Now()
	for {
		inst, err := w.prepare(e, p.passes)
		if err != nil {
			return p, fmt.Errorf("prepare %s: %w", w.name, err)
		}
		// Collect the previous pass's garbage before timing starts, so
		// each pass begins from the same heap and peak_rss_mb does not
		// depend on where the collector happened to stop.
		runtime.GC()
		inputPass := p.passes
		if w.samePasses {
			inputPass = 0
		}
		p.wall += runPass(w, e, inst, inputPass, log, tr, p.ops)
		p.ops += inst.size()
		p.passes++
		c := inst.counters()
		p.counters.executed += c.executed
		p.counters.coalesced += c.coalesced
		p.counters.rejected += c.rejected
		p.counters.hits += c.hits
		p.counters.misses += c.misses
		p.counters.evictions += c.evictions
		done := p.passes >= minPasses && time.Since(start).Seconds() >= seconds
		if done {
			p.elapsed = time.Since(start)
			p.cpu = cpuTime() - cpu0
			att, failed := inst.verify()
			log.mu.Lock()
			log.attempted += att
			for k := 0; k < failed; k++ {
				log.fail("served key or body differs from a local computation for the same scenario")
			}
			log.mu.Unlock()
		}
		inst.close()
		if done {
			return p, nil
		}
	}
}

// runOps runs the first n ops of input pass 0 untimed, as repetitions
// checked against the bytes they produced before.
func runOps(w workload, e env, n int, log *opLog) (time.Duration, error) {
	inst, err := w.prepare(e, 0)
	if err != nil {
		return 0, fmt.Errorf("prepare %s: %w", w.name, err)
	}
	defer inst.close()
	start := time.Now()
	for i := 0; i < min(n, inst.size()); i++ {
		res, err := inst.op(i, spanCtx{parent: -1})
		log.record(0, i, res, err, false)
	}
	return time.Since(start), nil
}

// runWorkload runs one workload for the given number of seconds and
// reports its end-to-end metrics, or with traced set its per-layer
// metrics.
func runWorkload(w workload, e env, seconds float64, traced bool) (*runReport, error) {
	rep := &runReport{
		Workload: w.name, Seed: e.seed, Seconds: seconds, Trace: traced,
		Nproc: e.workers, GoVersion: runtime.Version(),
		Metrics: make(map[string]metricValue), Detail: make(map[string]dist),
	}
	reps := setupReps
	if traced || e.tiny {
		reps = 2
	}
	var setup []float64
	for r := 0; r < reps; r++ {
		runtime.GC()
		t0 := time.Now()
		inst, err := w.prepare(e, 0)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", w.name, err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		inst.close()
	}
	rep.Detail["setup_s"] = summarize(setup, 0.5)

	log := newOpLog()
	warm, err := runOps(w, e, 1, log)
	if err != nil {
		return nil, err
	}
	rep.WarmupS = warm.Seconds()

	if traced {
		if err := tracedRun(w, e, seconds, log, rep); err != nil {
			return nil, err
		}
	} else {
		p, err := runPhase(w, e, seconds, w.minPasses, log, nil)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		if _, err := runOps(w, e, w.repeat, log); err != nil {
			return nil, err
		}
		lat := summarize(log.latMs, w.tailP())
		rep.Passes = p.passes
		rep.Detail["op_ms"] = lat
		put := func(name string, v float64) {
			m, _ := lookupMetric(name)
			rep.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
		}
		put("setup_s", median(setup))
		put("op_p50_ms", lat.P50)
		put("op_tail_ms", lat.Tail)
		put("ops_per_s", float64(len(log.latMs))/p.wall.Seconds())
		put("peak_rss_mb", rss)
	}
	for tag, xs := range log.byTag {
		rep.Detail["latency_ms."+tag] = summarize(xs, tailPercentile(len(xs)))
	}
	if len(log.firstMs) > 0 {
		rep.Detail["stream_first_record_ms"] = summarize(log.firstMs, tailPercentile(len(log.firstMs)))
	}
	rep.Attempted, rep.Failed, rep.Failures = log.attempted, log.failed, log.failures
	rep.Digest = log.digest()
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// tracedRun measures the per-layer metrics: half the time untraced, half
// with spans and a CPU profile, then the layer replays.
func tracedRun(w workload, e env, seconds float64, log *opLog, rep *runReport) error {
	plain, err := runPhase(w, e, seconds/2, 1, log, nil)
	if err != nil {
		return err
	}
	plainP50 := median(log.latMs)
	nPlain := len(log.latMs)

	profPath := fmt.Sprintf("%s/cpu-%s-%d.pprof", e.work, w.name, e.seed)
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	tr := newTracer()
	traced, err := runPhase(w, e, seconds/2, 1, log, tr)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rep.Passes = plain.passes + traced.passes
	tracedP50 := median(log.latMs[nPlain:])

	prepared, err := w.prepare(e, 0)
	if err != nil {
		return err
	}
	probes := prepared.probes()
	prepared.close()
	vals, perr := probeLayers(e, probes)
	if perr != nil {
		log.fail(fmt.Sprintf("layer replay: %v", perr))
	}
	log.attempted++

	shares, err := cpuShares(profPath, e.work)
	if err != nil {
		return err
	}
	for _, m := range cpuModules {
		vals["cpu_share."+m] = shares[m]
	}
	c := traced.counters
	vals["server.executed"] = float64(c.executed)
	vals["server.coalesced"] = float64(c.coalesced)
	vals["server.rejected"] = float64(c.rejected)
	vals["cache.evictions"] = float64(c.evictions)
	if c.hits+c.misses > 0 {
		vals["cache.hit_ratio"] = float64(c.hits) / float64(c.hits+c.misses)
	}
	vals["process.cpu_utilization"] = plain.cpu.Seconds() / (plain.elapsed.Seconds() * float64(e.workers))
	vals["trace.overhead_ratio"] = tracedP50 / plainP50

	for _, m := range perLayer {
		rep.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	rep.Spans = tr.selfTimes()
	return tr.write(fmt.Sprintf("%s/spans-%s-%d.json", e.work, w.name, e.seed))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
