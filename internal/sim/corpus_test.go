package sim

// Differential corpus: SHA-256 digests of the canonical Result bytes
// (EncodeResult) and of the telemetry export for a fixed list of seeded
// scenarios, recorded with the slot-by-slot backoff kernel. The exact
// one-timer countdown (DESIGN.md §12) must reproduce every digest; the
// corpus spans every scheme, the PHY and MAC ablations, CBR and
// waypoint mobility, delay sampling, telemetry down to one-slot
// sampling, a one-slot neighbor refresh, and the partitioned kernel at
// one and two workers. Regenerate (only for an intended behaviour
// change) with:
//
//	UPDATE_CORPUS=1 go test ./internal/sim -run TestCountdownCorpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/telemetry"
)

const corpusPath = "testdata/corpus/digests.json"

// corpusCase is one corpus entry: a scenario plus the partition-worker
// count it runs with.
type corpusCase struct {
	name    string
	sc      Scenario
	workers int
}

// corpusDigest is the recorded fingerprint of one case.
type corpusDigest struct {
	Name      string `json:"name"`
	Result    string `json:"result"`
	Telemetry string `json:"telemetry,omitempty"`
}

func corpusCases(t *testing.T) []corpusCase {
	ms := func(n int64) Duration { return Duration(des.Time(n) * des.Millisecond) }
	rings := func(scheme string, n int, beam float64, seed int64) Scenario {
		return Scenario{Scheme: scheme, BeamwidthDeg: beam, Seed: seed, Duration: ms(400), Topology: TopologySpec{N: n}}
	}
	var cs []corpusCase
	add := func(name string, sc Scenario) { cs = append(cs, corpusCase{name: name, sc: sc, workers: 1}) }

	// Every scheme over the paper's density/beamwidth range.
	for i, s := range []string{"ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS", "ORTS-DCTS"} {
		add(fmt.Sprintf("scheme_%s_n3_b30", s), rings(s, 3, 30, int64(1+i)))
		add(fmt.Sprintf("scheme_%s_n5_b90", s), rings(s, 5, 90, int64(11+i)))
		add(fmt.Sprintf("scheme_%s_n8_b150", s), rings(s, 8, 150, int64(21+i)))
	}

	// PHY and MAC ablations.
	for i, s := range []string{"DRTS-DCTS", "DRTS-OCTS", "ORTS-DCTS"} {
		sc := rings(s, 5, 30, int64(31+i))
		sc.PHY.NAVOracle = true
		add("navoracle_"+s, sc)
	}
	for i, s := range []string{"ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS"} {
		sc := rings(s, 5, 45, int64(41+i))
		sc.PHY.SINR = true
		add("sinr_"+s, sc)
	}
	for i, s := range []string{"ORTS-OCTS", "DRTS-DCTS"} {
		sc := rings(s, 8, 60, int64(51+i))
		sc.PHY.Capture = true
		add("capture_"+s, sc)
	}
	for i, s := range []string{"ORTS-OCTS", "DRTS-DCTS"} {
		sc := rings(s, 8, 30, int64(61+i))
		sc.Ablations.DisableEIFS = true
		add("noeifs_"+s, sc)
	}
	for i, s := range []string{"ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS"} {
		sc := rings(s, 5, 60, int64(71+i))
		sc.Ablations.BasicAccess = true
		add("basic_"+s, sc)
	}
	for i, s := range []string{"ORTS-OCTS", "DRTS-DCTS"} {
		sc := rings(s, 3, 90, int64(81+i))
		sc.Ablations.HelloBootstrap = true
		add("hello_"+s, sc)
	}
	{
		sc := rings("DRTS-DCTS", 5, 30, 91)
		sc.Ablations.AdaptiveRTS = ms(20)
		sc.Mobility = MobilitySpec{Kind: "waypoint", MaxSpeed: 5, RefreshInterval: ms(100)}
		add("adaptive_mobile", sc)
		sc = rings("DRTS-OCTS", 5, 60, 92)
		sc.Ablations.AdaptiveRTS = ms(5)
		add("adaptive_static", sc)
		sc = rings("DRTS-DCTS", 5, 30, 93)
		sc.PHY.NAVOracle = true
		sc.PHY.Capture = true
		sc.Ablations.DisableEIFS = true
		add("navoracle_capture_noeifs", sc)
	}

	// Traffic and mobility.
	for i, load := range []float64{20e3, 200e3, 800e3} {
		sc := rings("DRTS-DCTS", 5, 30, int64(101+i))
		sc.Duration = ms(400)
		sc.Traffic = TrafficSpec{Kind: "cbr", OfferedLoadBps: load}
		add(fmt.Sprintf("cbr_%.0f", load), sc)
	}
	for i, s := range []string{"ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS"} {
		sc := rings(s, 5, 30, int64(111+i))
		sc.Duration = ms(300)
		sc.Mobility = MobilitySpec{Kind: "waypoint", MaxSpeed: 3, RefreshInterval: ms(50)}
		add("waypoint_"+s, sc)
	}
	{
		sc := rings("DRTS-DCTS", 3, 30, 121)
		sc.Duration = ms(500)
		sc.Traffic = TrafficSpec{Kind: "cbr", OfferedLoadBps: 200e3}
		sc.Mobility = MobilitySpec{Kind: "waypoint", MaxSpeed: 2, RefreshInterval: Duration(des.Second)}
		add("sparse_idle_cbr_waypoint", sc)
		// The fast-forward switch is a no-op: the same scenario with it
		// set must reproduce the slot-by-slot bytes.
		sc.FastForward = true
		add("sparse_idle_cbr_waypoint_ffset", sc)
	}
	for i, s := range []string{"DRTS-DCTS", "ORTS-OCTS"} {
		// One-slot neighbor refresh: refresh events tie with countdown
		// finals at every slot boundary of a grid started at Build.
		sc := rings(s, 3, 60, int64(131+i))
		sc.Duration = ms(200)
		sc.Mobility = MobilitySpec{Kind: "waypoint", MaxSpeed: 4, RefreshInterval: Duration(20 * des.Microsecond)}
		add("refresh_20us_"+s, sc)
	}
	{
		sc := Scenario{
			Scheme: "DRTS-DCTS", BeamwidthDeg: 30, Seed: 7, Duration: ms(800),
			Topology: TopologySpec{Kind: "explicit", N: 2, Positions: []geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}},
			Traffic:  TrafficSpec{Kind: "cbr", OfferedLoadBps: 500e3},
			Mobility: MobilitySpec{Kind: "waypoint", MaxSpeed: 2, RefreshInterval: Duration(des.Second)},
		}
		add("sparse_pair", sc)
		sc.FastForward = true
		add("sparse_pair_ffset", sc)
	}
	{
		sc := Scenario{Scheme: "DRTS-DCTS", BeamwidthDeg: 45, Seed: 141, Duration: ms(150), Topology: TopologySpec{Kind: "grid", N: 5}}
		add("grid_DRTS-DCTS", sc)
		sc = Scenario{Scheme: "ORTS-OCTS", Seed: 142, Duration: ms(150), Topology: TopologySpec{Kind: "uniform", N: 5, Rings: 3}}
		add("uniform_ORTS-OCTS", sc)
	}

	// Delay sampling.
	for i, s := range []string{"ORTS-OCTS", "DRTS-DCTS"} {
		sc := rings(s, 5, 30, int64(151+i))
		sc.SampleDelays = true
		add("sampledelays_"+s, sc)
	}
	{
		sc := rings("DRTS-OCTS", 3, 90, 153)
		sc.SampleDelays = true
		sc.Traffic = TrafficSpec{Kind: "cbr", OfferedLoadBps: 300e3}
		add("sampledelays_cbr", sc)
	}

	// Telemetry: a 5 ms cadence, and one-slot (20 µs) sampling whose
	// probe ticks share the backoff slot period.
	for i, s := range []string{"ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS"} {
		sc := rings(s, 5, 30, int64(161+i))
		sc.Telemetry = TelemetrySpec{Interval: ms(5)}
		add("telemetry_5ms_"+s, sc)
	}
	for i, s := range []string{"ORTS-OCTS", "DRTS-DCTS"} {
		sc := rings(s, 3, 60, int64(171+i))
		sc.Duration = ms(40)
		sc.Telemetry = TelemetrySpec{Interval: Duration(20 * des.Microsecond)}
		add("telemetry_20us_"+s, sc)
	}
	{
		sc := rings("DRTS-DCTS", 3, 30, 181)
		sc.Duration = ms(200)
		sc.Traffic = TrafficSpec{Kind: "cbr", OfferedLoadBps: 100e3}
		sc.Mobility = MobilitySpec{Kind: "waypoint", MaxSpeed: 2, RefreshInterval: ms(100)}
		sc.Telemetry = TelemetrySpec{Interval: ms(5)}
		add("telemetry_5ms_cbr_waypoint", sc)
	}

	// Committed scenario files, and the partitioned kernel at one and
	// two workers.
	for _, f := range []string{"paper-drts-dcts.json", "cbr-mobility.json", "grid-sinr-trace.json", "omni-baseline.json", "telemetry-trajectory.json"} {
		sc, err := LoadScenario(filepath.Join("testdata", f))
		if err != nil {
			t.Fatal(err)
		}
		if sc.Duration > ms(300) {
			sc.Duration = ms(300)
		}
		add("file_"+f, sc)
	}
	par, err := LoadScenario(filepath.Join("testdata", "parallel-uniform.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		cs = append(cs, corpusCase{name: fmt.Sprintf("parallel_uniform_w%d", w), sc: par, workers: w})
		// 1440-node fields whose bytes depend on the partition windows
		// matching the per-slot kernel's (des.Scheduler.NextAt).
		for _, seed := range []int64{2, 4} {
			field := Scenario{Scheme: "DRTS-DCTS", BeamwidthDeg: 60, Seed: seed, Duration: ms(20), Topology: TopologySpec{Kind: "uniform", N: 10, Rings: 12}}
			cs = append(cs, corpusCase{name: fmt.Sprintf("partitioned_field_s%d_w%d", seed, w), sc: field, workers: w})
		}
	}
	return cs
}

// runCorpusCase runs one case and digests its result and telemetry
// export.
func runCorpusCase(c corpusCase) (corpusDigest, error) {
	var buf bytes.Buffer
	w := telemetry.NewWriter(&buf)
	s, err := Build(c.sc, Options{Workers: c.workers, Telemetry: w})
	if err != nil {
		return corpusDigest{}, err
	}
	res, err := s.Run()
	if err != nil {
		return corpusDigest{}, err
	}
	if err := w.Flush(); err != nil {
		return corpusDigest{}, err
	}
	b, err := EncodeResult(res)
	if err != nil {
		return corpusDigest{}, err
	}
	d := corpusDigest{Name: c.name, Result: sha256Hex(b)}
	if c.sc.Telemetry.Enabled() {
		d.Telemetry = sha256Hex(buf.Bytes())
	}
	return d, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestCountdownCorpus(t *testing.T) {
	cases := corpusCases(t)
	if os.Getenv("UPDATE_CORPUS") != "" {
		out := make([]corpusDigest, len(cases))
		for i, c := range cases {
			// Recorded with the switch off: the slot-by-slot bytes are the
			// reference the no-op switch must also reproduce.
			c.sc.FastForward = false
			d, err := runCorpusCase(c)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			out[i] = d
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(corpusPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(corpusPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(corpusPath)
	if err != nil {
		t.Fatalf("missing corpus (run with UPDATE_CORPUS=1 to generate): %v", err)
	}
	var want []corpusDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("corpus file has %d entries, case list has %d", len(want), len(cases))
	}
	for i, c := range cases {
		c, w := c, want[i]
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if w.Name != c.name {
				t.Fatalf("corpus entry %d is %q, case list says %q", i, w.Name, c.name)
			}
			got, err := runCorpusCase(c)
			if err != nil {
				t.Fatal(err)
			}
			if got.Result != w.Result {
				t.Errorf("result digest %s, want %s", got.Result, w.Result)
			}
			if got.Telemetry != w.Telemetry {
				t.Errorf("telemetry digest %s, want %s", got.Telemetry, w.Telemetry)
			}
		})
	}
}
