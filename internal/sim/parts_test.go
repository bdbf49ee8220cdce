package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/geom"
)

// TestResolveScheme: a scenario's scheme resolves through
// core.ParseScheme, the "omni" and "directional" aliases in any
// spelling included.
func TestResolveScheme(t *testing.T) {
	tests := []struct {
		in   string
		want core.Scheme
	}{
		{"ORTS-OCTS", core.ORTSOCTS},
		{"orts_octs", core.ORTSOCTS},
		{"omni", core.ORTSOCTS},
		{"OMNI", core.ORTSOCTS},
		{"OM-NI", core.ORTSOCTS},
		{"directional", core.DRTSDCTS},
		{"DRTS-DCTS", core.DRTSDCTS},
		{"drts octs", core.DRTSOCTS},
		{"Orts/Dcts", core.ORTSDCTS},
	}
	for _, tt := range tests {
		got, err := Scenario{Scheme: tt.in}.ResolvedScheme()
		if err != nil {
			t.Errorf("ResolvedScheme(%q): %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ResolvedScheme(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
	if _, err := (Scenario{Scheme: "sector"}).ResolvedScheme(); err == nil {
		t.Error("want error for unknown scheme name")
	}
}

// TestKindListingsSorted: both kind lists are the sorted sets of parts,
// and every kind they list builds, so Validate accepts no kind that
// GenerateTopology or Build would reject.
func TestKindListingsSorted(t *testing.T) {
	if want := []string{"explicit", "grid", "rings", "uniform"}; !reflect.DeepEqual(TopologyKinds(), want) {
		t.Errorf("topology kinds = %v, want %v", TopologyKinds(), want)
	}
	if want := []string{"cbr", "flows", "none", "saturated"}; !reflect.DeepEqual(TrafficKinds(), want) {
		t.Errorf("traffic kinds = %v, want %v", TrafficKinds(), want)
	}
	pts := []geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 0, Y: 0.5}}
	for _, kind := range TopologyKinds() {
		sc := Scenario{Topology: TopologySpec{Kind: kind, N: 2}}
		if kind == "explicit" {
			sc.Topology.Positions = pts
		}
		if _, err := GenerateTopology(rand.New(rand.NewSource(1)), sc); err != nil {
			t.Errorf("topology kind %q: %v", kind, err)
		}
	}
	for _, kind := range TrafficKinds() {
		sc := Scenario{
			Scheme: "DRTS-DCTS", BeamwidthDeg: 60, Seed: 1, Duration: Duration(des.Millisecond),
			Topology: TopologySpec{Kind: "explicit", N: 2, Positions: pts},
			Traffic:  TrafficSpec{Kind: kind},
		}
		switch kind {
		case "cbr":
			sc.Traffic.OfferedLoadBps = 1e5
		case "flows":
			sc.Traffic.Flows = []Flow{{Src: 0, Dst: 1}}
		}
		if _, err := Build(sc, Options{}); err != nil {
			t.Errorf("traffic kind %q: %v", kind, err)
		}
	}
}

func TestGenerateTopologyDeterministic(t *testing.T) {
	for _, kind := range []string{"rings", "grid", "uniform"} {
		sc := Scenario{Topology: TopologySpec{Kind: kind, N: 4}}
		a, err := GenerateTopology(rand.New(rand.NewSource(42)), sc)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, err := GenerateTopology(rand.New(rand.NewSource(42)), sc)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !reflect.DeepEqual(a.Positions, b.Positions) {
			t.Errorf("%s: same seed produced different placements", kind)
		}
		if len(a.Positions) < sc.Topology.N {
			t.Errorf("%s: %d positions for n=%d", kind, len(a.Positions), sc.Topology.N)
		}
	}
}

func TestExplicitTopologyCopiesPositions(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 0, Y: 0.5}}
	sc := Scenario{Topology: TopologySpec{Kind: "explicit", N: 2, Positions: pts}}
	topo, err := GenerateTopology(rand.New(rand.NewSource(1)), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(topo.Positions, pts) {
		t.Fatalf("explicit positions not preserved: %v", topo.Positions)
	}
	topo.Positions[0].X = 99
	if pts[0].X == 99 {
		t.Error("explicit builder aliases the scenario's position slice")
	}
	if topo.N != 2 || topo.Radius != 1.0 || topo.Rings != 3 {
		t.Errorf("defaults not resolved: N=%d R=%v rings=%d", topo.N, topo.Radius, topo.Rings)
	}
}

func TestGridTopologyInsideOut(t *testing.T) {
	sc := Scenario{Topology: TopologySpec{Kind: "grid", N: 9}}
	topo, err := GenerateTopology(rand.New(rand.NewSource(1)), sc)
	if err != nil {
		t.Fatal(err)
	}
	origin := geom.Point{}
	for i := 1; i < len(topo.Positions); i++ {
		if topo.Positions[i].Dist2(origin) < topo.Positions[i-1].Dist2(origin) {
			t.Fatalf("positions not ordered inside-out at %d", i)
		}
	}
	bound := float64(topo.Rings) * topo.Radius
	for i, p := range topo.Positions {
		if p.Dist(origin) > bound+1e-9 {
			t.Errorf("position %d outside the %v-radius field: %v", i, bound, p)
		}
	}
}

func TestUniformTopologyNodeBudget(t *testing.T) {
	sc := Scenario{Topology: TopologySpec{Kind: "uniform", N: 5}}
	topo, err := GenerateTopology(rand.New(rand.NewSource(7)), sc)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * 3 * 5; len(topo.Positions) != want {
		t.Errorf("uniform field has %d nodes, want rings²·n = %d", len(topo.Positions), want)
	}
}

// TestSortInsideOutMatchesComparisonSort: the bucketed inside-out sort
// gives the order one comparison sort on (d², X, Y) gives, for fields
// with ties in d² (a lattice), repeated points, every point at the
// origin, and a point far outside the rest.
func TestSortInsideOutMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	uniform := make([]geom.Point, 2000)
	for i := range uniform {
		uniform[i] = geom.Polar(geom.Point{}, 9*rng.Float64(), 2*3.14159*rng.Float64())
	}
	var lattice []geom.Point
	for x := -6; x <= 6; x++ {
		for y := -6; y <= 6; y++ {
			lattice = append(lattice, geom.Point{X: float64(x) * 0.5, Y: float64(y) * 0.5})
		}
	}
	repeated := append(append([]geom.Point{}, uniform[:50]...), uniform[:50]...)
	far := append(append([]geom.Point{}, uniform[:100]...), geom.Point{X: 1e12, Y: -3})
	for _, tc := range []struct {
		name string
		ps   []geom.Point
	}{
		{"uniform", uniform}, {"lattice", lattice}, {"repeated", repeated},
		{"origin", make([]geom.Point, 7)}, {"far", far}, {"one", []geom.Point{{X: 1, Y: 2}}}, {"empty", nil},
	} {
		got := append([]geom.Point{}, tc.ps...)
		rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		want := append([]geom.Point{}, got...)
		sort.Slice(want, func(i, j int) bool {
			di, dj := want[i].Dist2(geom.Point{}), want[j].Dist2(geom.Point{})
			if di != dj {
				return di < dj
			}
			if want[i].X != want[j].X {
				return want[i].X < want[j].X
			}
			return want[i].Y < want[j].Y
		})
		sortInsideOut(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: bucketed order differs from a comparison sort", tc.name)
		}
	}
}
