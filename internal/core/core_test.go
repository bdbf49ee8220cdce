package core

import (
	"math"
	"testing"
	"testing/quick"
)

func paperParams(n, theta float64) Params {
	return Params{N: n, Beamwidth: theta, Lengths: PaperLengths()}
}

func TestSchemeString(t *testing.T) {
	tests := []struct {
		s    Scheme
		want string
	}{
		{ORTSOCTS, "ORTS-OCTS"},
		{DRTSDCTS, "DRTS-DCTS"},
		{DRTSOCTS, "DRTS-OCTS"},
		{Scheme(99), "Scheme(99)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.s), got, tt.want)
		}
	}
}

func TestSchemesOrder(t *testing.T) {
	got := Schemes()
	want := []Scheme{ORTSOCTS, DRTSDCTS, DRTSOCTS}
	if len(got) != len(want) {
		t.Fatalf("Schemes() len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Schemes()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLengths(t *testing.T) {
	l := PaperLengths()
	if l.RTS != 5 || l.CTS != 5 || l.Data != 100 || l.ACK != 5 {
		t.Errorf("PaperLengths = %+v, want 5/5/100/5", l)
	}
	if got := l.Succeed(); got != 119 {
		t.Errorf("Succeed = %d, want 119", got)
	}
	if err := l.Validate(); err != nil {
		t.Errorf("Validate(paper lengths) = %v", err)
	}
	if err := (Lengths{RTS: 0, CTS: 5, Data: 100, ACK: 5}).Validate(); err == nil {
		t.Error("Validate should reject zero RTS length")
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"valid", paperParams(5, math.Pi/2), false},
		{"zero N", paperParams(0, math.Pi/2), true},
		{"negative N", paperParams(-1, math.Pi/2), true},
		{"NaN N", paperParams(math.NaN(), math.Pi/2), true},
		{"zero beamwidth", paperParams(5, 0), true},
		{"too-wide beamwidth", paperParams(5, 2*math.Pi+0.1), true},
		{"full circle ok", paperParams(5, 2*math.Pi), false},
		{"bad lengths", Params{N: 5, Beamwidth: 1, Lengths: Lengths{}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSolveRejectsBadP(t *testing.T) {
	pr := paperParams(5, math.Pi/2)
	for _, p := range []float64{0, -0.1, 1, 1.5, math.NaN()} {
		if _, err := Solve(ORTSOCTS, p, pr); err == nil {
			t.Errorf("Solve(p=%v) should fail", p)
		}
	}
}

func TestSolveRejectsUnknownScheme(t *testing.T) {
	if _, err := Solve(Scheme(0), 0.01, paperParams(5, math.Pi/2)); err == nil {
		t.Error("Solve(unknown scheme) should fail")
	}
}

func TestSteadyStateIsDistribution(t *testing.T) {
	for _, s := range Schemes() {
		for _, p := range []float64{0.001, 0.01, 0.05, 0.2, 0.9} {
			for _, n := range []float64{1, 3, 8, 20} {
				st, err := Solve(s, p, paperParams(n, math.Pi/3))
				if err != nil {
					t.Fatalf("%v p=%v N=%v: %v", s, p, n, err)
				}
				sum := st.Pw + st.Ps + st.Pf
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%v p=%v N=%v: π sums to %v", s, p, n, sum)
				}
				for name, v := range map[string]float64{"Pw": st.Pw, "Ps": st.Ps, "Pf": st.Pf} {
					if v < 0 || v > 1 || math.IsNaN(v) {
						t.Errorf("%v p=%v N=%v: %s = %v out of [0,1]", s, p, n, name, v)
					}
				}
				if st.Pws < 0 || st.Pws > 1 {
					t.Errorf("%v: Pws = %v out of [0,1]", s, st.Pws)
				}
				if st.Pww < 0 || st.Pww > 1 {
					t.Errorf("%v: Pww = %v out of [0,1]", s, st.Pww)
				}
			}
		}
	}
}

func TestTfailBounds(t *testing.T) {
	l := PaperLengths()
	pr := paperParams(5, math.Pi/4)
	// ORTS-OCTS: fixed failed period.
	st, err := Solve(ORTSOCTS, 0.05, pr)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(l.RTS + l.CTS + 2); st.Tfail != want {
		t.Errorf("ORTS-OCTS Tfail = %v, want %v", st.Tfail, want)
	}
	// DRTS-DCTS: truncated geometric on [l_rts+1, T_succeed].
	st, err = Solve(DRTSDCTS, 0.05, pr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tfail < float64(l.RTS+1) || st.Tfail > float64(l.Succeed()) {
		t.Errorf("DRTS-DCTS Tfail = %v outside [%d, %d]", st.Tfail, l.RTS+1, l.Succeed())
	}
	// With small p the mean hugs the lower bound.
	if st.Tfail > float64(l.RTS+1)+1 {
		t.Errorf("DRTS-DCTS Tfail = %v, want close to %d at small p", st.Tfail, l.RTS+1)
	}
	// DRTS-OCTS: lower bound includes the CTS exchange.
	st, err = Solve(DRTSOCTS, 0.05, pr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tfail < float64(l.RTS+l.CTS+2) || st.Tfail > float64(l.Succeed()) {
		t.Errorf("DRTS-OCTS Tfail = %v outside [%d, %d]", st.Tfail, l.RTS+l.CTS+2, l.Succeed())
	}
}

func TestThroughputPositiveAndBounded(t *testing.T) {
	for _, s := range Schemes() {
		for _, p := range []float64{0.005, 0.02, 0.1} {
			th, err := Throughput(s, p, paperParams(5, math.Pi/6))
			if err != nil {
				t.Fatal(err)
			}
			if th <= 0 || th >= 1 {
				t.Errorf("%v p=%v: throughput %v outside (0,1)", s, p, th)
			}
		}
	}
}

// TestThroughputVanishesAtExtremes: as p→0 nobody transmits; as p→1
// everything collides. Throughput must collapse at both ends.
func TestThroughputVanishesAtExtremes(t *testing.T) {
	pr := paperParams(5, math.Pi/6)
	for _, s := range Schemes() {
		_, peak, err := MaxThroughput(s, pr, 0)
		if err != nil {
			t.Fatal(err)
		}
		lo, err := Throughput(s, 1e-6, pr)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := Throughput(s, 0.999, pr)
		if err != nil {
			t.Fatal(err)
		}
		if lo > peak/100 {
			t.Errorf("%v: Th(p→0) = %v, want ≪ peak %v", s, lo, peak)
		}
		if hi > peak/10 {
			t.Errorf("%v: Th(p→1) = %v, want ≪ peak %v", s, hi, peak)
		}
	}
}

// TestORTSOCTSIndependentOfBeamwidth: the omni scheme must ignore θ.
func TestORTSOCTSIndependentOfBeamwidth(t *testing.T) {
	a, err := Throughput(ORTSOCTS, 0.02, paperParams(5, math.Pi/12))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Throughput(ORTSOCTS, 0.02, paperParams(5, 2*math.Pi))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("ORTS-OCTS throughput depends on beamwidth: %v vs %v", a, b)
	}
}

// TestPaperFig5Shape asserts the published qualitative result: with the
// Section 3 configuration, DRTS-DCTS achieves the highest maximum
// throughput of the three schemes at narrow beamwidths and degrades
// significantly as the beamwidth grows, while DRTS-OCTS outperforms
// ORTS-OCTS at narrow beamwidths.
func TestPaperFig5Shape(t *testing.T) {
	for _, n := range []float64{3, 5, 8} {
		narrow := paperParams(n, 15*math.Pi/180)
		wide := paperParams(n, math.Pi)
		maxTh := func(s Scheme, pr Params) float64 {
			_, v, err := MaxThroughput(s, pr, 0)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		var (
			ortsNarrow = maxTh(ORTSOCTS, narrow)
			ddNarrow   = maxTh(DRTSDCTS, narrow)
			doNarrow   = maxTh(DRTSOCTS, narrow)
			ddWide     = maxTh(DRTSDCTS, wide)
		)
		if !(ddNarrow > doNarrow && doNarrow > ortsNarrow) {
			t.Errorf("N=%v narrow beam ordering: DD=%v DO=%v ORTS=%v, want DD > DO > ORTS",
				n, ddNarrow, doNarrow, ortsNarrow)
		}
		if ddWide >= ddNarrow/1.5 {
			t.Errorf("N=%v: DRTS-DCTS should degrade significantly with beamwidth: narrow=%v wide=%v",
				n, ddNarrow, ddWide)
		}
		if ddWide >= ortsNarrow {
			t.Errorf("N=%v: wide-beam DRTS-DCTS (%v) should fall below ORTS-OCTS (%v)",
				n, ddWide, ortsNarrow)
		}
	}
}

// TestDRTSDCTSMonotoneInBeamwidth: maximum throughput of the
// all-directional scheme decreases as the beam widens.
func TestDRTSDCTSMonotoneInBeamwidth(t *testing.T) {
	prev := math.Inf(1)
	for _, th := range PaperBeamwidths() {
		_, v, err := MaxThroughput(DRTSDCTS, paperParams(5, th), 0)
		if err != nil {
			t.Fatal(err)
		}
		if v > prev+1e-9 {
			t.Fatalf("DRTS-DCTS max throughput not decreasing at θ=%v: %v > %v", th, v, prev)
		}
		prev = v
	}
}

// TestThroughputDecreasesWithDensity: more contenders per disk lowers
// per-node saturation throughput for every scheme.
func TestThroughputDecreasesWithDensity(t *testing.T) {
	for _, s := range Schemes() {
		prev := math.Inf(1)
		for _, n := range []float64{2, 3, 5, 8, 12} {
			_, v, err := MaxThroughput(s, paperParams(n, math.Pi/6), 0)
			if err != nil {
				t.Fatal(err)
			}
			if v > prev+1e-9 {
				t.Fatalf("%v: max throughput not decreasing at N=%v", s, n)
			}
			prev = v
		}
	}
}

func TestMaxThroughputRejectsBadParams(t *testing.T) {
	if _, _, err := MaxThroughput(ORTSOCTS, paperParams(-1, 1), 0); err == nil {
		t.Error("want error for bad params")
	}
}

func TestMaxThroughputDefaultBound(t *testing.T) {
	pr := paperParams(5, math.Pi/6)
	p1, th1, err := MaxThroughput(DRTSDCTS, pr, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, th2, err := MaxThroughput(DRTSDCTS, pr, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1-p2) > 1e-6 || math.Abs(th1-th2) > 1e-9 {
		t.Errorf("default bound mismatch: (%v,%v) vs (%v,%v)", p1, th1, p2, th2)
	}
}

func TestCurve(t *testing.T) {
	thetas := PaperBeamwidths()
	if len(thetas) != 12 {
		t.Fatalf("PaperBeamwidths len = %d, want 12", len(thetas))
	}
	if math.Abs(thetas[0]-15*math.Pi/180) > 1e-12 || math.Abs(thetas[11]-math.Pi) > 1e-12 {
		t.Fatalf("PaperBeamwidths endpoints = %v, %v", thetas[0], thetas[11])
	}
	curve, err := Curve(DRTSDCTS, 5, PaperLengths(), thetas)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != len(thetas) {
		t.Fatalf("curve len = %d, want %d", len(curve), len(thetas))
	}
	for i, v := range curve {
		if v <= 0 || v >= 1 {
			t.Errorf("curve[%d] = %v outside (0,1)", i, v)
		}
	}
	if _, err := Curve(DRTSDCTS, -1, PaperLengths(), thetas); err == nil {
		t.Error("Curve should propagate parameter errors")
	}
}

// TestSolveThroughputConsistency: Throughput must equal the value
// recomputed from the Steady it is based on.
func TestSolveThroughputConsistency(t *testing.T) {
	f := func(pRaw, nRaw, thRaw uint16) bool {
		p := 0.001 + float64(pRaw%500)/1000.0 // (0.001, 0.5)
		n := 1 + float64(nRaw%15)             // [1, 15]
		theta := 0.1 + float64(thRaw%62)/10   // (0.1, 6.3)
		if theta > 2*math.Pi {
			theta = 2 * math.Pi
		}
		pr := paperParams(n, theta)
		for _, s := range Schemes() {
			st, err := Solve(s, p, pr)
			if err != nil {
				return false
			}
			th, err := Throughput(s, p, pr)
			if err != nil {
				return false
			}
			ts := float64(pr.Lengths.Succeed())
			want := st.Ps * float64(pr.Lengths.Data) / (st.Pw + st.Ps*ts + st.Pf*st.Tfail)
			if math.Abs(th-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestNarrowBeamApproachesInterferenceFree: as θ→0 with fixed N, the
// directional scheme's success probability approaches the
// interference-free product p(1−p) (only the receiver's own behaviour
// matters), so its optimal throughput approaches the contention-free
// schedule efficiency.
func TestNarrowBeamApproachesInterferenceFree(t *testing.T) {
	pr := paperParams(8, 0.001)
	p := 0.05
	st, err := Solve(DRTSDCTS, p, pr)
	if err != nil {
		t.Fatal(err)
	}
	want := p * (1 - p) * math.Exp(-p*pr.N*0.001/(2*math.Pi)) // only S_I survives
	if math.Abs(st.Pws-want)/want > 0.02 {
		t.Errorf("θ→0: Pws = %v, want ≈ %v", st.Pws, want)
	}
}

func TestParseScheme(t *testing.T) {
	tests := []struct {
		in      string
		want    Scheme
		wantErr bool
	}{
		{"ORTS-OCTS", ORTSOCTS, false},
		{"orts-octs", ORTSOCTS, false},
		{"DRTSDCTS", DRTSDCTS, false},
		{"drts_octs", DRTSOCTS, false},
		{"DRTS-DCTS", DRTSDCTS, false},
		// Mixed case, mixed separators, surrounding whitespace: the
		// spellings the docs and CLI flags actually use.
		{"Orts-Octs", ORTSOCTS, false},
		{"drtsdcts", DRTSDCTS, false},
		{"DRTS_DCTS", DRTSDCTS, false},
		{"drts/octs", DRTSOCTS, false},
		{"DRTS OCTS", DRTSOCTS, false},
		{" orts-dcts ", ORTSDCTS, false},
		{"\tORTS_OCTS\n", ORTSOCTS, false},
		{"orts_dcts", ORTSDCTS, false},
		{"o-r-t-s_o_c_t_s", ORTSOCTS, false},
		// The beam-mode aliases.
		{"omni", ORTSOCTS, false},
		{"OMNI", ORTSOCTS, false},
		{"Om-Ni", ORTSOCTS, false},
		{"directional", DRTSDCTS, false},
		{" Directional ", DRTSDCTS, false},
		{"bogus", 0, true},
		{"", 0, true},
		{"   ", 0, true},
		{"ORTS", 0, true},
		{"ORTS-OCTS-EXTRA", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseScheme(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseScheme(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("ParseScheme(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestAllSchemes(t *testing.T) {
	all := AllSchemes()
	if len(all) != 4 || all[3] != ORTSDCTS {
		t.Errorf("AllSchemes = %v", all)
	}
	if ORTSDCTS.String() != "ORTS-DCTS" {
		t.Errorf("name = %q", ORTSDCTS.String())
	}
	if s, err := ParseScheme("orts-dcts"); err != nil || s != ORTSDCTS {
		t.Errorf("ParseScheme(orts-dcts) = %v, %v", s, err)
	}
}

// TestORTSDCTSIsWorst: the extension analysis predicts the fourth
// combination is dominated by ORTS-OCTS — it pays the omni-RTS silencing
// cost but exposes the whole data frame to hidden terminals.
func TestORTSDCTSIsWorst(t *testing.T) {
	for _, n := range []float64{3, 5, 8} {
		for _, theta := range []float64{math.Pi / 12, math.Pi / 2, math.Pi} {
			pr := paperParams(n, theta)
			_, worst, err := MaxThroughput(ORTSDCTS, pr, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, omni, err := MaxThroughput(ORTSOCTS, pr, 0)
			if err != nil {
				t.Fatal(err)
			}
			if worst >= omni {
				t.Errorf("N=%v θ=%v: ORTS-DCTS %v should be below ORTS-OCTS %v", n, theta, worst, omni)
			}
			// Still a working scheme: positive throughput.
			if worst <= 0 {
				t.Errorf("N=%v θ=%v: ORTS-DCTS throughput %v", n, theta, worst)
			}
		}
	}
}

func TestAttemptProbability(t *testing.T) {
	// The fixed point must satisfy p = p0·(1−p)·e^{−pN}.
	for _, p0 := range []float64{0.01, 0.1, 0.5, 0.9} {
		for _, n := range []float64{1, 5, 20} {
			p, err := AttemptProbability(p0, n)
			if err != nil {
				t.Fatal(err)
			}
			rhs := p0 * (1 - p) * math.Exp(-p*n)
			if math.Abs(p-rhs) > 1e-9 {
				t.Errorf("p0=%v N=%v: fixed point violated: p=%v rhs=%v", p0, n, p, rhs)
			}
			if p <= 0 || p >= p0 {
				t.Errorf("p0=%v N=%v: p=%v outside (0, p0)", p0, n, p)
			}
		}
	}
}

func TestAttemptProbabilityMonotone(t *testing.T) {
	// p increases with p0 and decreases with N.
	prev := 0.0
	for _, p0 := range []float64{0.05, 0.1, 0.2, 0.4, 0.8} {
		p, err := AttemptProbability(p0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if p <= prev {
			t.Errorf("p not increasing in p0 at %v", p0)
		}
		prev = p
	}
	prev = 1.0
	for _, n := range []float64{1, 3, 8, 20, 50} {
		p, err := AttemptProbability(0.2, n)
		if err != nil {
			t.Fatal(err)
		}
		if p >= prev {
			t.Errorf("p not decreasing in N at %v", n)
		}
		prev = p
	}
}

func TestAttemptProbabilityValidation(t *testing.T) {
	for _, bad := range [][2]float64{{0, 5}, {1, 5}, {-0.1, 5}, {0.5, 0}, {0.5, -3}, {math.NaN(), 5}} {
		if _, err := AttemptProbability(bad[0], bad[1]); err == nil {
			t.Errorf("AttemptProbability(%v, %v) should fail", bad[0], bad[1])
		}
	}
}

func TestThroughputFromReadiness(t *testing.T) {
	pr := paperParams(5, math.Pi/6)
	th, err := ThroughputFromReadiness(DRTSDCTS, 0.05, pr)
	if err != nil {
		t.Fatal(err)
	}
	if th <= 0 || th >= 1 {
		t.Errorf("throughput = %v", th)
	}
	// It must equal evaluating Throughput at the solved p.
	p, err := AttemptProbability(0.05, pr.N)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Throughput(DRTSDCTS, p, pr)
	if err != nil {
		t.Fatal(err)
	}
	if th != want {
		t.Errorf("ThroughputFromReadiness = %v, want %v", th, want)
	}
	if _, err := ThroughputFromReadiness(DRTSDCTS, 2, pr); err == nil {
		t.Error("bad p0 should fail")
	}
}

func TestBianchiAttempt(t *testing.T) {
	// Known structure: with W=32, m=5, the attempt probability is a few
	// percent and decreases with the number of contenders.
	prev := 1.0
	for _, n := range []int{2, 3, 5, 8, 20, 50} {
		tau, pc, err := BianchiAttempt(DefaultBianchiParams(n))
		if err != nil {
			t.Fatal(err)
		}
		if tau <= 0 || tau >= 0.1 {
			t.Errorf("n=%d: tau = %v outside the paper's expected (0, 0.1) band", n, tau)
		}
		if pc <= 0 || pc >= 1 {
			t.Errorf("n=%d: pc = %v", n, pc)
		}
		if tau >= prev {
			t.Errorf("tau not decreasing with contenders at n=%d", n)
		}
		prev = tau
		// Fixed-point consistency.
		if got := 1 - math.Pow(1-tau, float64(n-1)); math.Abs(got-pc) > 1e-6 {
			t.Errorf("n=%d: fixed point violated: pc=%v vs %v", n, pc, got)
		}
	}
}

func TestBianchiTwoStations(t *testing.T) {
	// Sanity anchor: for n=2, W=32, m=5, Bianchi's model gives τ ≈ 0.06,
	// pc ≈ 0.06 (collision only when both pick the same slot).
	tau, pc, err := BianchiAttempt(BianchiParams{W: 32, M: 5, Contenders: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tau < 0.04 || tau > 0.08 {
		t.Errorf("tau = %v, want ≈ 0.06", tau)
	}
	if math.Abs(pc-tau) > 1e-6 {
		t.Errorf("for n=2, pc must equal the peer's tau: %v vs %v", pc, tau)
	}
}

func TestBianchiValidation(t *testing.T) {
	bad := []BianchiParams{
		{W: 1, M: 5, Contenders: 5},
		{W: 32, M: -1, Contenders: 5},
		{W: 32, M: 5, Contenders: 1},
	}
	for i, bp := range bad {
		if _, _, err := BianchiAttempt(bp); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

// TestThroughputAt802_11 evaluates the model at the attempt probability
// the Table 1 contention window induces. Two findings worth pinning:
// the Bianchi τ lands inside the paper's "p below ≈0.1" band, and at
// N=8 it exceeds the attempt probability that maximizes DRTS-DCTS — the
// fixed-base-window view of standard 802.11 is too aggressive for the
// all-directional scheme, which explains why the simulator (whose BEB
// adaptively grows the window under DD's higher collision rate) still
// realizes DD's advantage while a fixed common p would not.
func TestThroughputAt802_11(t *testing.T) {
	pr := paperParams(8, 30*math.Pi/180)
	for _, s := range Schemes() {
		th, err := ThroughputAt802_11(s, pr)
		if err != nil {
			t.Fatal(err)
		}
		if th <= 0 || th >= 1 {
			t.Errorf("%v: throughput %v outside (0,1)", s, th)
		}
	}
	tau, _, err := BianchiAttempt(DefaultBianchiParams(8))
	if err != nil {
		t.Fatal(err)
	}
	pOpt, _, err := MaxThroughput(DRTSDCTS, pr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tau <= pOpt {
		t.Errorf("Bianchi τ (%v) should exceed DRTS-DCTS's optimal p (%v) at N=8: standard 802.11 is too aggressive for the all-directional scheme", tau, pOpt)
	}
	if _, err := ThroughputAt802_11(DRTSDCTS, paperParams(-1, 1)); err == nil {
		t.Error("bad params should fail")
	}
}

// TestFig5GoldenValues pins the analytical results to the values this
// reproduction first produced (recorded in EXPERIMENTS.md), protecting
// the model's algebra against accidental changes. Tolerances are loose
// enough to allow quadrature/optimizer tweaks but tight enough to catch
// formula regressions.
func TestFig5GoldenValues(t *testing.T) {
	tests := []struct {
		n, thetaDeg float64
		scheme      Scheme
		want        float64
	}{
		{3, 15, ORTSOCTS, 0.4183},
		{3, 15, DRTSDCTS, 0.5759},
		{3, 15, DRTSOCTS, 0.5140},
		{5, 30, ORTSOCTS, 0.3198},
		{5, 30, DRTSDCTS, 0.3747},
		{5, 30, DRTSOCTS, 0.3897},
		{8, 90, DRTSDCTS, 0.1657},
		{8, 180, ORTSOCTS, 0.2363},
		{8, 180, DRTSDCTS, 0.1031},
		{8, 180, DRTSOCTS, 0.2035},
	}
	for _, tt := range tests {
		pr := paperParams(tt.n, tt.thetaDeg*math.Pi/180)
		_, got, err := MaxThroughput(tt.scheme, pr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 5e-4 {
			t.Errorf("%v N=%g θ=%g°: max throughput %.4f, golden %.4f",
				tt.scheme, tt.n, tt.thetaDeg, got, tt.want)
		}
	}
}

// TestOptimalPGolden pins the optimizing attempt probabilities.
func TestOptimalPGolden(t *testing.T) {
	tests := []struct {
		n, thetaDeg float64
		scheme      Scheme
		wantP       float64
	}{
		{3, 15, DRTSDCTS, 0.0463},
		{5, 30, DRTSOCTS, 0.0290},
		{8, 30, ORTSOCTS, 0.0113},
	}
	for _, tt := range tests {
		pr := paperParams(tt.n, tt.thetaDeg*math.Pi/180)
		p, _, err := MaxThroughput(tt.scheme, pr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-tt.wantP) > 2e-3 {
			t.Errorf("%v N=%g θ=%g°: optimal p %.4f, golden %.4f",
				tt.scheme, tt.n, tt.thetaDeg, p, tt.wantP)
		}
	}
}
