package sim

// Runner fans one scenario out over many independent shards — the
// paper's "mean over random topologies" presentation, and the seam any
// future multi-machine sharding plugs into. Shard seeds are derived
// deterministically from the base seed, results are reported in shard
// order, and the error contract is deterministic too: whichever shard
// with the LOWEST index fails decides the returned error, no matter
// which goroutine stumbled first.

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/telemetry"
)

// RunScenario builds and runs a single scenario. With Options.Cache set
// (and no runtime overrides attached) the result is served from the
// content-addressed store when present, bit-identical to a fresh run.
func RunScenario(sc Scenario, opts Options) (*Result, error) {
	if cacheable(opts) {
		return runCached(sc, opts)
	}
	s, err := Build(sc, opts)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// Shard derives the scenario for shard i: identical to base except the
// seed, which is base.Seed + i. This is the sharding contract — shard
// results are reproducible individually, so a sweep can be re-run
// piecemeal (or on other machines) and spliced back together.
func Shard(base Scenario, i int) Scenario {
	sc := base
	sc.Seed = base.Seed + int64(i)
	return sc
}

// Runner executes scenario shards on a bounded worker pool.
type Runner struct {
	// Workers bounds the shard pool (0 means GOMAXPROCS); the pool
	// takes min(Workers, shards) goroutines. A fixed pool pulling shard
	// indices from a channel keeps a whole sweep from allocating one
	// parked goroutine per topology. Results never depend on it.
	Workers int
	// Options is passed to every shard's Build. Callers attaching a
	// Tracer must make it safe for concurrent use.
	Options Options

	// run executes one shard; nil means RunScenario. Tests set it to
	// inject shard failures.
	run func(Scenario, Options) (*Result, error)
}

// Run executes shards 0..shards-1 of base and returns their results in
// shard order. On failure the returned error is the one from the
// lowest-indexed failing shard, annotated with its index and seed.
func (r Runner) Run(base Scenario, shards int) ([]*Result, error) {
	if shards < 1 {
		return nil, fmt.Errorf("sim: need at least one shard, got %d", shards)
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	run := r.run
	if run == nil {
		run = RunScenario
	}
	results := make([]*Result, shards)
	// When the caller attached a telemetry sink, each shard streams into
	// its own in-memory buffer; the per-shard exports are merged in shard
	// order after the pool drains, so the bytes reaching the caller's
	// sink are deterministic no matter how the workers interleaved.
	var telBufs []*telemetry.Buffer
	if base.Telemetry.Enabled() && r.Options.Telemetry != nil {
		telBufs = make([]*telemetry.Buffer, shards)
		for i := range telBufs {
			telBufs[i] = telemetry.NewBuffer()
		}
	}
	var (
		mu      sync.Mutex
		failIdx = shards // lowest failing shard index so far
		failErr error
	)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				mu.Lock()
				skip := i > failIdx
				mu.Unlock()
				if skip {
					// A lower-indexed shard already failed, so this
					// shard's result cannot be reported. Shards BELOW
					// the recorded failure still run: the true minimum
					// failing index is therefore always discovered,
					// keeping the winning error independent of
					// goroutine scheduling.
					continue
				}
				opts := r.Options
				if telBufs != nil {
					opts.Telemetry = telBufs[i]
				}
				res, err := run(Shard(base, i), opts)
				if err != nil {
					mu.Lock()
					if i < failIdx {
						failIdx, failErr = i, err
					}
					mu.Unlock()
					continue
				}
				results[i] = res //desalint:ignore sharedstate each worker writes only its own shard index, and the WaitGroup orders all writes before the read
			}
		}()
	}
	for i := 0; i < shards; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if failErr != nil {
		return nil, fmt.Errorf("sim: shard %d (seed %d): %w", failIdx, base.Seed+int64(failIdx), failErr)
	}
	if telBufs != nil {
		merged, err := telemetry.Merge(telBufs)
		if err != nil {
			return nil, fmt.Errorf("sim: merge shard telemetry: %w", err)
		}
		if err := merged.WriteTo(r.Options.Telemetry); err != nil {
			return nil, fmt.Errorf("sim: write merged telemetry: %w", err)
		}
	}
	return results, nil
}
