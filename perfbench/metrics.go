package main

// metricDef names one reported metric. The tables below are the single
// source of the metric catalogue; BENCHMARK.json at the repository root
// restates them and a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported by
// every untraced run. An "op" is the unit a user waits on in that
// workload: one grid cell (paper-grid), one scenario run (sparse-idle),
// one Build+Run of the field (large-field), one HTTP request
// (served-mix). Bound is the share of a baseline median by which the
// metric may worsen before a change counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.24},
	{"op_tail_ms", "ms", "lower", 0.24},
	{"ops_per_s", "1/s", "higher", 0.24},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the traced run's single-layer metrics. Each is measured
// on every workload; a layer the workload bypasses reads as zero work
// (for example server.executed on paper-grid), which is the prediction
// for that pairing.
var perLayer = []metricDef{
	{"sim.build_ms", "ms", "lower", 0},
	{"sim.build_allocs", "count", "lower", 0},
	{"sim.run_ms", "ms", "lower", 0},
	{"sim.run_alloc_mb", "MB", "lower", 0},
	{"sim.partitions", "count", "higher", 0},
	{"sim.partition_speedup", "ratio", "higher", 0},
	{"des.events", "count", "lower", 0},
	{"des.ns_per_event", "ns", "lower", 0},
	{"des.events_per_frame", "ratio", "lower", 0},
	{"phy.frames", "count", "higher", 0},
	{"phy.airtime_s", "sim_s", "higher", 0},
	{"mac.handshakes", "count", "higher", 0},
	{"mac.handshake_yield", "ratio", "higher", 0},
	{"mac.cts_timeouts", "count", "lower", 0},
	{"mac.ff_event_ratio", "ratio", "lower", 0},
	{"mac.ff_divergent_runs", "count", "lower", 0},
	{"server.parse_us", "us", "lower", 0},
	{"server.key_us", "us", "lower", 0},
	{"server.encode_us", "us", "lower", 0},
	{"server.hit_ms", "ms", "lower", 0},
	{"server.miss_ms", "ms", "lower", 0},
	{"server.http_self_us", "us", "lower", 0},
	{"server.executed", "count", "lower", 0},
	{"server.coalesced", "count", "higher", 0},
	{"server.rejected", "count", "lower", 0},
	{"cache.put_us", "us", "lower", 0},
	{"cache.get_hit_us", "us", "lower", 0},
	{"cache.get_disk_us", "us", "lower", 0},
	{"cache.get_miss_us", "us", "lower", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},
	{"cache.evictions", "count", "lower", 0},
	{"telemetry.records_per_run", "count", "lower", 0},
	{"telemetry.bytes_per_run", "bytes", "lower", 0},
	{"telemetry.first_record_ms", "ms", "lower", 0},
	{"telemetry.overhead_ratio", "ratio", "lower", 0},
	{"process.cpu_utilization", "ratio", "higher", 0},
	{"cpu_share.des", "share", "lower", 0},
	{"cpu_share.phy", "share", "lower", 0},
	{"cpu_share.mac", "share", "lower", 0},
	{"cpu_share.neighbor", "share", "lower", 0},
	{"cpu_share.traffic", "share", "lower", 0},
	{"cpu_share.mobility", "share", "lower", 0},
	{"cpu_share.sim", "share", "lower", 0},
	{"cpu_share.experiments", "share", "lower", 0},
	{"cpu_share.telemetry", "share", "lower", 0},
	{"cpu_share.cache", "share", "lower", 0},
	{"cpu_share.server", "share", "lower", 0},
	{"cpu_share.net_http", "share", "lower", 0},
	{"cpu_share.runtime", "share", "lower", 0},
	{"cpu_share.stdlib", "share", "lower", 0},
	{"cpu_share.other", "share", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// cpuModules are the cpu_share.* groups, in table order.
var cpuModules = []string{
	"des", "phy", "mac", "neighbor", "traffic", "mobility", "sim", "experiments",
	"telemetry", "cache", "server", "net_http", "runtime", "stdlib", "other",
}

// lookupMetric finds a metric definition by name in either table.
func lookupMetric(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
