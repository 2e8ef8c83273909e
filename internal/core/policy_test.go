package core

import (
	"math"
	"testing"
	"testing/quick"

	"sdb/internal/pmic"
)

// mkStatus builds a synthetic battery status for policy unit tests.
func mkStatus(soc, v, r, wear, maxDisW, maxChgW float64) pmic.BatteryStatus {
	return pmic.BatteryStatus{
		SoC:              soc,
		TerminalV:        v,
		DCIR:             r,
		DCIRSlope:        -0.05,
		WearRatio:        wear,
		RatedCycles:      1000,
		CapacityCoulombs: 7200,
		MaxDischargeW:    maxDisW,
		MaxChargeW:       maxChgW,
		EnergyRemainingJ: soc * 7200 * v,
	}
}

func checkRatios(t *testing.T, ratios []float64) {
	t.Helper()
	var sum float64
	for i, r := range ratios {
		if r < 0 || math.IsNaN(r) {
			t.Fatalf("ratio %d = %g", i, r)
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ratios sum to %g: %v", sum, ratios)
	}
}

func TestRBLDischargeFavorsLowResistance(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(0.8, 3.8, 0.1, 0, 20, 5), // low resistance
		mkStatus(0.8, 3.8, 0.4, 0, 20, 5), // 4x resistance
	}
	ratios, err := RBLDischarge{}.DischargeRatios(nil, sts, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	checkRatios(t, ratios)
	// Power share ~ V^2/R: 4:1.
	if got := ratios[0] / ratios[1]; math.Abs(got-4) > 0.2 {
		t.Errorf("share ratio = %g, want ~4 (inverse resistance)", got)
	}
}

func TestRBLDischargeSkipsEmptyCell(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(0, 3.0, 0.1, 0, 0, 5),
		mkStatus(0.8, 3.8, 0.4, 0, 20, 5),
	}
	ratios, err := RBLDischarge{}.DischargeRatios(nil, sts, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	checkRatios(t, ratios)
	if ratios[0] > 1e-9 {
		t.Errorf("empty cell got ratio %g", ratios[0])
	}
}

func TestRBLDischargeMinimizesModelLoss(t *testing.T) {
	// Against any alternative split of the same load, the RBL split
	// must produce lower total I^2 R model loss.
	sts := []pmic.BatteryStatus{
		mkStatus(0.7, 3.9, 0.12, 0, 25, 5),
		mkStatus(0.7, 3.7, 0.30, 0, 25, 5),
		mkStatus(0.7, 3.8, 0.60, 0, 25, 5),
	}
	const loadW = 3.0
	loss := func(shares []float64) float64 {
		var sum float64
		for i, s := range sts {
			p := shares[i] * loadW
			iAmp := p / s.TerminalV
			sum += iAmp * iAmp * s.DCIR
		}
		return sum
	}
	opt, err := RBLDischarge{}.DischargeRatios(nil, sts, loadW)
	if err != nil {
		t.Fatal(err)
	}
	base := loss(opt)
	alternatives := [][]float64{
		{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
		{1.0 / 3, 1.0 / 3, 1.0 / 3},
		{0.5, 0.25, 0.25}, {0.25, 0.5, 0.25},
	}
	for _, alt := range alternatives {
		if l := loss(alt); l < base-1e-9 {
			t.Errorf("alternative %v loss %g beats RBL loss %g", alt, l, base)
		}
	}
}

func TestRBLDischargeDerivativeAwareDeweightsSteepCells(t *testing.T) {
	flat := mkStatus(0.5, 3.8, 0.2, 0, 25, 5)
	steep := mkStatus(0.5, 3.8, 0.2, 0, 25, 5)
	steep.DCIRSlope = -8.0 // resistance rises sharply as SoC falls
	plain, err := RBLDischarge{}.DischargeRatios(nil, []pmic.BatteryStatus{flat, steep}, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := RBLDischarge{DerivativeAware: true}.DischargeRatios(nil, []pmic.BatteryStatus{flat, steep}, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain[0]-0.5) > 1e-9 {
		t.Fatalf("plain policy should split equally, got %v", plain)
	}
	if aware[1] >= aware[0] {
		t.Errorf("derivative-aware policy did not de-weight the steep cell: %v", aware)
	}
}

func TestRBLChargeFavorsLowResistance(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(0.3, 3.6, 0.1, 0, 20, 8),
		mkStatus(0.3, 3.6, 0.3, 0, 20, 8),
	}
	ratios, err := RBLCharge{}.ChargeRatios(nil, sts, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	checkRatios(t, ratios)
	if ratios[0] <= ratios[1] {
		t.Errorf("low-resistance cell not favored for charge: %v", ratios)
	}
}

func TestRBLChargeSkipsFullCell(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(1.0, 4.2, 0.1, 0, 20, 0),
		mkStatus(0.3, 3.6, 0.3, 0, 20, 8),
	}
	ratios, err := RBLCharge{}.ChargeRatios(nil, sts, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	checkRatios(t, ratios)
	if ratios[0] > 1e-9 {
		t.Errorf("full cell got charge ratio %g", ratios[0])
	}
}

func TestRBLChargeAllFullFallsBackToUniform(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(1, 4.2, 0.1, 0, 20, 0),
		mkStatus(1, 4.2, 0.2, 0, 20, 0),
	}
	ratios, err := RBLCharge{}.ChargeRatios(nil, sts, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	checkRatios(t, ratios)
}

func TestCCBDischargeFavorsLeastWorn(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(0.8, 3.8, 0.2, 0.8, 20, 5), // heavily worn
		mkStatus(0.8, 3.8, 0.2, 0.1, 20, 5), // barely worn
	}
	ratios, err := CCBDischarge{}.DischargeRatios(nil, sts, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	checkRatios(t, ratios)
	if ratios[1] <= ratios[0] {
		t.Errorf("least-worn cell not favored: %v", ratios)
	}
	// Headroom 200 vs 900 cycles: 0.18 vs 0.82.
	if math.Abs(ratios[1]-0.818) > 0.02 {
		t.Errorf("ratio[1] = %g, want ~0.82 (headroom share)", ratios[1])
	}
}

func TestCCBChargeFavorsLeastWorn(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(0.3, 3.6, 0.2, 0.5, 20, 8),
		mkStatus(0.3, 3.6, 0.2, 0.0, 20, 8),
	}
	ratios, err := CCBCharge{}.ChargeRatios(nil, sts, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	checkRatios(t, ratios)
	if ratios[1] <= ratios[0] {
		t.Errorf("least-worn cell not favored for charge: %v", ratios)
	}
}

func TestBlendedDirectiveInterpolates(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(0.8, 3.8, 0.1, 0.9, 20, 8), // efficient but worn
		mkStatus(0.8, 3.8, 0.4, 0.1, 20, 8), // inefficient but fresh
	}
	dir := 0.0
	b := NewBlended(func() (float64, float64) { return dir, dir })

	dir = 0 // pure CCB: favor the fresh cell
	ccb, err := b.DischargeRatios(nil, sts, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	dir = 1 // pure RBL: favor the efficient cell
	rbl, err := b.DischargeRatios(nil, sts, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	dir = 0.5
	mid, err := b.DischargeRatios(nil, sts, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	checkRatios(t, ccb)
	checkRatios(t, rbl)
	checkRatios(t, mid)
	if ccb[1] <= ccb[0] {
		t.Errorf("directive 0 should favor fresh cell: %v", ccb)
	}
	if rbl[0] <= rbl[1] {
		t.Errorf("directive 1 should favor efficient cell: %v", rbl)
	}
	if !(mid[0] > rblMin(ccb[0], rbl[0])-1e-9 && mid[0] < rblMax(ccb[0], rbl[0])+1e-9) {
		t.Errorf("blend %v not between extremes %v and %v", mid, ccb, rbl)
	}
}

func rblMin(a, b float64) float64 { return math.Min(a, b) }
func rblMax(a, b float64) float64 { return math.Max(a, b) }

func TestReservePolicyPreservesReserve(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(0.8, 3.8, 0.1, 0, 5, 2),   // efficient Li-ion (reserve)
		mkStatus(0.8, 3.7, 1.0, 0, 1.5, 1), // bendable (expendable)
	}
	// Low-power load fits in the expendable cell's capability.
	p := Reserve{ReserveIdx: 0}
	ratios, err := p.DischargeRatios(nil, sts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	checkRatios(t, ratios)
	if ratios[0] > 1e-9 {
		t.Errorf("reserve cell tapped for a low-power load: %v", ratios)
	}
}

func TestReservePolicySpillsHighLoad(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(0.8, 3.8, 0.1, 0, 5, 2),
		mkStatus(0.8, 3.7, 1.0, 0, 1.5, 1),
	}
	p := Reserve{ReserveIdx: 0}
	// 3 W load exceeds the expendable 1.5 W capability: the reserve
	// carries the excess.
	ratios, err := p.DischargeRatios(nil, sts, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	checkRatios(t, ratios)
	if ratios[0] < 0.45 {
		t.Errorf("reserve share %g too small for a 3 W load", ratios[0])
	}
	if ratios[1] < 0.4 {
		t.Errorf("expendable share %g should stay near its 1.5 W cap", ratios[1])
	}
}

func TestReservePolicyTakesOverWhenExpendableDrained(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(0.8, 3.8, 0.1, 0, 5, 2),
		mkStatus(0.0, 3.0, 1.0, 0, 0, 1), // drained
	}
	ratios, err := Reserve{ReserveIdx: 0}.DischargeRatios(nil, sts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	checkRatios(t, ratios)
	if math.Abs(ratios[0]-1) > 1e-9 {
		t.Errorf("reserve should carry everything once expendable drains: %v", ratios)
	}
}

func TestReservePolicySpillCap(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(0.8, 3.8, 0.1, 0, 5, 2),
		mkStatus(0.8, 3.7, 1.0, 0, 1.5, 1),
	}
	p := Reserve{ReserveIdx: 0, SpillW: 0.2}
	ratios, err := p.DischargeRatios(nil, sts, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	checkRatios(t, ratios)
	// Expendable limited to 0.2 W of the 1 W load.
	if math.Abs(ratios[1]-0.2) > 0.02 {
		t.Errorf("expendable share %g, want ~0.2 under SpillW", ratios[1])
	}
}

func TestReservePolicyValidation(t *testing.T) {
	sts := []pmic.BatteryStatus{mkStatus(0.8, 3.8, 0.1, 0, 5, 2)}
	if _, err := (Reserve{ReserveIdx: 3}).DischargeRatios(nil, sts, 1); err == nil {
		t.Error("out-of-range reserve index accepted")
	}
	if _, err := (Reserve{}).DischargeRatios(nil, nil, 1); err == nil {
		t.Error("empty status accepted")
	}
}

func TestProportionalBaseline(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(0.8, 3.8, 0.1, 0, 20, 8),
		mkStatus(0.8, 3.8, 0.3, 0, 20, 8),
	}
	dis, err := Proportional{}.DischargeRatios(nil, sts, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	checkRatios(t, dis)
	// 1/R weighting: 3:1.
	if got := dis[0] / dis[1]; math.Abs(got-3) > 0.01 {
		t.Errorf("proportional split = %g, want 3", got)
	}
	chg, err := Proportional{}.ChargeRatios(nil, sts, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	checkRatios(t, chg)
}

func TestFixedRatiosPolicy(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(0.8, 3.8, 0.1, 0, 20, 8),
		mkStatus(0.8, 3.8, 0.3, 0, 20, 8),
	}
	f := FixedRatios{Label: "all-first", Ratios: []float64{1, 0}}
	dis, err := f.DischargeRatios(nil, sts, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if dis[0] != 1 || dis[1] != 0 {
		t.Errorf("fixed ratios altered: %v", dis)
	}
	if f.Name() != "all-first" {
		t.Errorf("name = %q", f.Name())
	}
	if _, err := (FixedRatios{Ratios: []float64{1}}).DischargeRatios(nil, sts, 1); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestCapAndRedistribute(t *testing.T) {
	// 10 W load, shares 80/20, but cell 0 caps at 4 W.
	out := []float64{0.8, 0.2}
	if err := capAndRedistribute(out, []float64{4, 20}, 10); err != nil {
		t.Fatal(err)
	}
	checkRatios(t, out)
	if got := out[0] * 10; got > 4.001 {
		t.Errorf("cell 0 allocated %g W above its 4 W cap", got)
	}
	if got := out[1] * 10; math.Abs(got-6) > 0.01 {
		t.Errorf("cell 1 allocated %g W, want 6", got)
	}
}

func TestCapAndRedistributeInfeasibleLoad(t *testing.T) {
	// Pack can only do 5 W total; ask for 10. Shares must still be a
	// valid distribution (firmware handles the brownout).
	out := []float64{0.5, 0.5}
	if err := capAndRedistribute(out, []float64{2, 3}, 10); err != nil {
		t.Fatal(err)
	}
	checkRatios(t, out)
}

func TestMixAndNormalizeHelpers(t *testing.T) {
	// A prefix before the two vectors survives; b is dropped.
	m, err := mix([]float64{7, 1, 0, 0, 1}, 1, 3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || m[0] != 7 || math.Abs(m[1]-0.75) > 1e-12 || math.Abs(m[2]-0.25) > 1e-12 {
		t.Errorf("mix = %v", m)
	}
	if _, err := mix([]float64{1, 0, 1}, 0, 1, 0.5); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := normalize([]float64{0, 0}); err == nil {
		t.Error("all-zero weights accepted")
	}
	w := []float64{-1, 2}
	if err := normalize(w); err == nil || w[0] != -1 || w[1] != 2 {
		t.Errorf("negative weight accepted or weights touched: %v, %v", err, w)
	}
}

func TestComputeMetrics(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(1.0, 3.8, 0.1, 0.4, 20, 8),
		mkStatus(0.5, 3.8, 0.3, 0.1, 20, 8),
	}
	m := ComputeMetrics(sts)
	if m.CCB != 4 {
		t.Errorf("CCB = %g, want 4 (0.4/0.1)", m.CCB)
	}
	if math.Abs(m.MeanSoC-0.75) > 1e-9 {
		t.Errorf("MeanSoC = %g, want 0.75", m.MeanSoC)
	}
	if m.RBLJoules <= 0 {
		t.Error("RBL not positive")
	}
}

func TestComputeMetricsFreshPack(t *testing.T) {
	sts := []pmic.BatteryStatus{
		mkStatus(1, 3.8, 0.1, 0, 20, 8),
		mkStatus(1, 3.8, 0.3, 0, 20, 8),
	}
	if m := ComputeMetrics(sts); m.CCB != 1 {
		t.Errorf("fresh pack CCB = %g, want 1", m.CCB)
	}
}

// Property: every built-in policy returns a valid distribution for any
// plausible two-cell state.
func TestPoliciesAlwaysReturnDistributionsProperty(t *testing.T) {
	policies := []DischargePolicy{
		RBLDischarge{}, RBLDischarge{DerivativeAware: true},
		CCBDischarge{}, Proportional{}, Reserve{ReserveIdx: 0},
	}
	f := func(s1, s2, w1, w2, load float64) bool {
		soc1 := 0.01 + math.Mod(math.Abs(s1), 0.99)
		soc2 := 0.01 + math.Mod(math.Abs(s2), 0.99)
		wear1 := math.Mod(math.Abs(w1), 0.95)
		wear2 := math.Mod(math.Abs(w2), 0.95)
		loadW := math.Mod(math.Abs(load), 10)
		sts := []pmic.BatteryStatus{
			mkStatus(soc1, 3.5+soc1, 0.1+wear1, wear1, 10*soc1+0.1, 5),
			mkStatus(soc2, 3.5+soc2, 0.1+wear2, wear2, 10*soc2+0.1, 5),
		}
		for _, p := range policies {
			ratios, err := p.DischargeRatios(nil, sts, loadW)
			if err != nil {
				return false
			}
			var sum float64
			for _, r := range ratios {
				if r < 0 || math.IsNaN(r) {
					return false
				}
				sum += r
			}
			if math.Abs(sum-1) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRBLAllocation(b *testing.B) {
	sts := make([]pmic.BatteryStatus, 8)
	for i := range sts {
		sts[i] = mkStatus(0.2+0.1*float64(i), 3.6+0.05*float64(i), 0.05*float64(i+1), 0.1*float64(i), 20, 8)
	}
	p := RBLDischarge{DerivativeAware: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.DischargeRatios(nil, sts, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlendedAllocation(b *testing.B) {
	sts := make([]pmic.BatteryStatus, 4)
	for i := range sts {
		sts[i] = mkStatus(0.5, 3.7, 0.1*float64(i+1), 0.2*float64(i), 20, 8)
	}
	blend := NewBlended(func() (float64, float64) { return 0.5, 0.5 })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := blend.DischargeRatios(nil, sts, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: capAndRedistribute never allocates above a cap when the
// total demand is feasible, and always returns a valid distribution.
func TestCapAndRedistributeProperty(t *testing.T) {
	f := func(r1, c1raw, c2raw, totRaw float64) bool {
		a := math.Mod(math.Abs(r1), 1)
		shares := []float64{a, 1 - a}
		caps := []float64{
			0.5 + math.Mod(math.Abs(c1raw), 10),
			0.5 + math.Mod(math.Abs(c2raw), 10),
		}
		total := math.Mod(math.Abs(totRaw), 25)
		out := shares
		if err := capAndRedistribute(out, caps, total); err != nil {
			return false
		}
		var sum float64
		for _, x := range out {
			if x < 0 || math.IsNaN(x) {
				return false
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-6 {
			return false
		}
		if total <= caps[0]+caps[1] {
			for i := range out {
				if out[i]*total > caps[i]*1.01+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
