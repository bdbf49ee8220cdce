package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/mac"
)

// randomFill sets every field reachable from v to a random value of its
// kind: nil, empty or filled slices and maps, and the float and integer
// extremes below. It fails on a kind it has no generator for, so a field
// added to Result or mac.Stats is either covered by the differential
// test or stops it.
func randomFill(t *testing.T, rng *rand.Rand, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(randomFloat(rng))
	case reflect.Int64:
		v.SetInt(randomInt(rng))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			randomFill(t, rng, v.Field(i))
		}
	case reflect.Slice:
		switch rng.Intn(6) {
		case 0:
			v.Set(reflect.Zero(v.Type()))
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			n := 1 + rng.Intn(12)
			s := reflect.MakeSlice(v.Type(), n, n)
			for i := 0; i < n; i++ {
				randomFill(t, rng, s.Index(i))
			}
			v.Set(s)
		}
	case reflect.Map:
		if v.Type().Key().Kind() != reflect.String {
			t.Fatalf("randomFill: no generator for map key %s", v.Type().Key())
		}
		if rng.Intn(6) == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		m := reflect.MakeMap(v.Type())
		keys := []string{"RTS", "CTS", "DATA", "ACK", "HELLO", "", "a<b", "x&y", `q"uote`, `back\slash`, "tab\t", "\x01", "ü", "\xff", " ", "del\x7f"}
		for n := rng.Intn(6); n > 0; n-- {
			e := reflect.New(v.Type().Elem()).Elem()
			randomFill(t, rng, e)
			m.SetMapIndex(reflect.ValueOf(keys[rng.Intn(len(keys))]).Convert(v.Type().Key()), e)
		}
		v.Set(m)
	default:
		t.Fatalf("randomFill: no generator for %s (kind %s); teach it, and EncodeResult, the new field", v.Type(), v.Kind())
	}
}

// randomFloat draws from both of encoding/json's float formats and
// their edges: zero and -0, 'e' below 1e-6 and from 1e21, 'f' between.
func randomFloat(rng *rand.Rand) float64 {
	var f float64
	switch rng.Intn(10) {
	case 0:
		f = math.Copysign(0, -1)
	case 1:
		f = [...]float64{1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, 1e-7, 1e-10, 1e100}[rng.Intn(10)]
	case 2:
		f = float64(rng.Int63n(1_000_000))
	case 3:
		f = rng.Float64() * 1e-6
	case 4:
		f = rng.Float64() * math.Pow(10, float64(18+rng.Intn(10)))
	default:
		f = rng.Float64() * math.Pow(10, float64(rng.Intn(20)-8))
	}
	if rng.Intn(2) == 0 {
		f = -f
	}
	return f
}

func randomInt(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return [...]int64{0, -1, 9, 10, math.MinInt64, math.MaxInt64}[rng.Intn(6)]
	case 1:
		return -rng.Int63() >> rng.Intn(63)
	default:
		return rng.Int63() >> rng.Intn(63)
	}
}

// TestEncodeResultMatchesJSON checks EncodeResult against json.Marshal,
// the encoder it replaced, on random Results in which every field is set.
func TestEncodeResultMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var r Result
		randomFill(t, rng, reflect.ValueOf(&r).Elem())
		assertEncodesLikeJSON(t, &r)
	}
	for _, r := range []*Result{
		{},
		{ThroughputBps: []float64{}, DelaySec: []float64{}, CollisionRatio: []float64{}, DelaySamplesSec: []float64{}, AirtimeShare: map[string]float64{}, NodeStats: []mac.Stats{}},
		{Jain: math.Copysign(0, -1), SpatialReuse: 1e-7, AirtimeShare: map[string]float64{"DATA": 1e21, "ACK": 9.5e-7}},
	} {
		assertEncodesLikeJSON(t, r)
	}
}

func assertEncodesLikeJSON(t *testing.T, r *Result) {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeResult(r)
	if err != nil {
		t.Fatalf("EncodeResult: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeResult differs from json.Marshal:\n got %s\nwant %s", got, want)
	}
}

// TestEncodeResultCoversEveryField checks by reflection that the
// encoding names every field of Result and of mac.Stats.
func TestEncodeResultCoversEveryField(t *testing.T) {
	b, err := EncodeResult(&Result{NodeStats: make([]mac.Stats, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	var stats []map[string]json.RawMessage
	if err := json.Unmarshal(top["NodeStats"], &stats); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		typ  reflect.Type
		keys map[string]json.RawMessage
	}{{reflect.TypeOf(Result{}), top}, {reflect.TypeOf(mac.Stats{}), stats[0]}} {
		if len(c.keys) != c.typ.NumField() {
			t.Errorf("%s: encoded %d keys, the type has %d fields", c.typ, len(c.keys), c.typ.NumField())
		}
		for i := 0; i < c.typ.NumField(); i++ {
			if _, ok := c.keys[c.typ.Field(i).Name]; !ok {
				t.Errorf("%s.%s is not encoded", c.typ, c.typ.Field(i).Name)
			}
		}
	}
}

// TestEncodeResultRejectsNonFinite: a NaN or infinity anywhere a float
// is encoded is an error, as it is for json.Marshal.
func TestEncodeResultRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range []struct {
			field string
			set   func(*Result)
		}{
			{"ThroughputBps", func(r *Result) { r.ThroughputBps = []float64{1, bad} }},
			{"DelaySec", func(r *Result) { r.DelaySec = []float64{bad} }},
			{"CollisionRatio", func(r *Result) { r.CollisionRatio = []float64{0, 0, bad} }},
			{"Jain", func(r *Result) { r.Jain = bad }},
			{"DelaySamplesSec", func(r *Result) { r.DelaySamplesSec = []float64{bad} }},
			{"SpatialReuse", func(r *Result) { r.SpatialReuse = bad }},
			{"AirtimeShare", func(r *Result) { r.AirtimeShare = map[string]float64{"RTS": 0.5, "DATA": bad} }},
		} {
			var r Result
			c.set(&r)
			if _, err := json.Marshal(&r); err == nil {
				t.Fatalf("%s = %v: json.Marshal accepted it", c.field, bad)
			}
			if b, err := EncodeResult(&r); err == nil {
				t.Errorf("%s = %v: EncodeResult returned %s, want an error", c.field, bad, b)
			}
		}
	}
}

// TestEncodeResultCommittedOutputs decodes the committed netsim -json
// outputs and re-encodes them: the bytes must come back unchanged, as
// json.Marshal's do.
func TestEncodeResultCommittedOutputs(t *testing.T) {
	files, err := filepath.Glob("testdata/expected/*.out")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed outputs: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		raw = bytes.TrimSuffix(raw, []byte("\n"))
		r, err := DecodeResult(raw)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		got, err := EncodeResult(r)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !bytes.Equal(got, raw) {
			t.Errorf("%s: re-encoded bytes differ from the committed output", f)
		}
		assertEncodesLikeJSON(t, r)
	}
}

// TestEncodeResultAllocatesOnce: the buffer is sized up front, so a
// 10 240-node Result is encoded with the one allocation it returns.
func TestEncodeResultAllocatesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := &Result{
		ThroughputBps:  make([]float64, 10),
		DelaySec:       make([]float64, 10),
		CollisionRatio: make([]float64, 10),
		AirtimeShare:   map[string]float64{"RTS": 0.1, "CTS": 0.04, "DATA": 0.84, "ACK": 0.02},
		NodeStats:      make([]mac.Stats, 10240),
	}
	for i := range r.ThroughputBps {
		r.ThroughputBps[i], r.DelaySec[i], r.CollisionRatio[i] = randomFloat(rng), randomFloat(rng), randomFloat(rng)
	}
	for i := range r.NodeStats {
		randomFill(t, rng, reflect.ValueOf(&r.NodeStats[i]).Elem())
	}
	assertEncodesLikeJSON(t, r)
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := EncodeResult(r); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("EncodeResult allocates %v times, want 1", allocs)
	}
}
