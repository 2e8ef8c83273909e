package sim

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"sdb/internal/core"
)

// cellF parses a table cell as float64.
func cellF(t *testing.T, tab *Table, row int, col string) float64 {
	t.Helper()
	s, ok := tab.Cell(row, col)
	if !ok {
		t.Fatalf("%s: no cell (%d, %s)", tab.ID, row, col)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell (%d, %s) = %q not a number", tab.ID, row, col, s)
	}
	return v
}

func TestTable1Driver(t *testing.T) {
	tab, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 15 {
		t.Errorf("table-1 rows = %d, want 15", len(tab.Rows))
	}
}

func TestFigure1aShape(t *testing.T) {
	tab, err := Figure1a()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("figure-1a rows = %d", len(tab.Rows))
	}
	// Type 1 (row 0) leads on power; Type 2 (row 1) on energy; Type 4
	// (row 3) on form factor.
	if cellF(t, tab, 0, "power") <= cellF(t, tab, 1, "power") {
		t.Error("Type 1 should lead Type 2 on power density")
	}
	if cellF(t, tab, 1, "energy") <= cellF(t, tab, 0, "energy") {
		t.Error("Type 2 should lead Type 1 on energy density")
	}
	if cellF(t, tab, 3, "form-factor") <= cellF(t, tab, 0, "form-factor") {
		t.Error("Type 4 should lead on form factor")
	}
}

func TestFigure1bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("endurance run")
	}
	tab, err := figure1b(context.Background(), DefaultFigure1bCycles)
	if err != nil {
		t.Fatal(err)
	}
	last := len(tab.Rows) - 1
	r05 := cellF(t, tab, last, "0.5A retention %")
	r07 := cellF(t, tab, last, "0.7A retention %")
	r10 := cellF(t, tab, last, "1.0A retention %")
	// Paper Figure 1(b): ~97% at 0.5 A, ~93% at 0.7 A, ~80% at 1.0 A
	// after 600 cycles. Require the ordering and rough magnitudes.
	if !(r05 > r07 && r07 > r10) {
		t.Fatalf("retention ordering broken: %.1f / %.1f / %.1f", r05, r07, r10)
	}
	if r05 < 93 || r05 > 99.5 {
		t.Errorf("0.5A retention %.1f%%, paper ~97%%", r05)
	}
	if r10 < 70 || r10 > 90 {
		t.Errorf("1.0A retention %.1f%%, paper ~80%%", r10)
	}
}

func TestFigure1cShape(t *testing.T) {
	tab, err := figure1c(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	last := len(tab.Rows) - 1
	t2 := cellF(t, tab, last, "Type2 loss %")
	t3 := cellF(t, tab, last, "Type3 loss %")
	t4 := cellF(t, tab, last, "Type4 loss %")
	// Paper Figure 1(c): at 2C, Type 4 is by far the lossiest; Type 3
	// (power-oriented) beats Type 2.
	if !(t4 > t2 && t4 > t3) {
		t.Errorf("Type 4 not the lossiest at 2C: %.1f / %.1f / %.1f", t2, t3, t4)
	}
	if t3 >= t2 {
		t.Errorf("Type 3 (%.1f%%) should lose less than Type 2 (%.1f%%) at 2C", t3, t2)
	}
	if t4 < 15 || t4 > 40 {
		t.Errorf("Type 4 loss at 2C = %.1f%%, paper shows ~30%%", t4)
	}
	// Losses grow with rate for every type.
	for _, col := range []string{"Type2 loss %", "Type3 loss %", "Type4 loss %"} {
		if cellF(t, tab, 0, col) >= cellF(t, tab, last, col) {
			t.Errorf("%s not increasing with C rate", col)
		}
	}
}

func TestFigure6Shapes(t *testing.T) {
	a, err := Figure6a()
	if err != nil {
		t.Fatal(err)
	}
	if lo := cellF(t, a, 0, "loss %"); lo < 0.5 || lo > 1.5 {
		t.Errorf("6a light-load loss %.2f%%, paper ~1%%", lo)
	}
	last := len(a.Rows) - 1
	if hi := cellF(t, a, last, "loss %"); hi < 1.3 || hi > 2.0 {
		t.Errorf("6a 10W loss %.2f%%, paper ~1.6%%", hi)
	}

	b, err := Figure6b()
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Rows {
		if e := cellF(t, b, i, "error %"); e > 0.6 {
			t.Errorf("6b error %.2f%% above the paper's 0.6%% bound", e)
		}
	}

	c, err := Figure6c()
	if err != nil {
		t.Fatal(err)
	}
	lastC := len(c.Rows) - 1
	if e := cellF(t, c, lastC, "% of typical efficiency"); e < 93 || e > 95 {
		t.Errorf("6c efficiency at 2.2A = %.1f%%, paper ~94%%", e)
	}

	d, err := Figure6d()
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Rows {
		if e := cellF(t, d, i, "error %"); e > 0.5 {
			t.Errorf("6d error %.2f%% above the paper's 0.5%% bound", e)
		}
	}
}

func TestFigure8Shapes(t *testing.T) {
	b, err := Figure8b()
	if err != nil {
		t.Fatal(err)
	}
	// OCP increases with SoC for every battery.
	lastRow := len(b.Rows) - 1
	for _, col := range b.Columns[1:] {
		if cellF(t, b, 0, col) >= cellF(t, b, lastRow, col) {
			t.Errorf("8b: OCP of %s not increasing", col)
		}
	}
	c, err := Figure8c()
	if err != nil {
		t.Fatal(err)
	}
	// Resistance decreases with SoC for every battery.
	lastRow = len(c.Rows) - 1
	for _, col := range c.Columns[1:] {
		if cellF(t, c, 0, col) <= cellF(t, c, lastRow, col) {
			t.Errorf("8c: DCIR of %s not decreasing", col)
		}
	}
}

func TestFigure10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("model fitting run")
	}
	tab, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("figure-10 rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		if acc := cellF(t, tab, i, "accuracy %"); acc < 97 {
			t.Errorf("model accuracy %.2f%%, paper reports 97.5%%", acc)
		}
	}
}

func TestFigure11aShape(t *testing.T) {
	tab, err := Figure11a()
	if err != nil {
		t.Fatal(err)
	}
	trad := cellF(t, tab, 0, "energy density Wh/l")
	mix := cellF(t, tab, 1, "energy density Wh/l")
	fast := cellF(t, tab, 2, "energy density Wh/l")
	if !(trad > mix && mix > fast) {
		t.Fatalf("density ordering broken: %.0f / %.0f / %.0f", trad, mix, fast)
	}
	// Paper: ~595-600 / ~545-555 / ~500-510 Wh/l.
	if trad < 580 || trad > 615 {
		t.Errorf("traditional density %.0f, paper ~595-600", trad)
	}
	if mix < 535 || mix > 565 {
		t.Errorf("SDB mix density %.0f, paper ~545-555", mix)
	}
	if fast < 490 || fast > 520 {
		t.Errorf("all-fast density %.0f, paper ~500-510", fast)
	}
	// The SDB mix gives up less than 10% density vs. traditional.
	if loss := 1 - mix/trad; loss > 0.10 {
		t.Errorf("SDB density sacrifice %.1f%%, paper < 7%%", loss*100)
	}
}

func TestFigure11bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("charging run")
	}
	tab, err := Figure11b()
	if err != nil {
		t.Fatal(err)
	}
	// Find the 40% row.
	var row40 = -1
	for i := range tab.Rows {
		if cellF(t, tab, i, "% charged") == 40 {
			row40 = i
		}
	}
	if row40 < 0 {
		t.Fatal("no 40% row")
	}
	trad := cellF(t, tab, row40, "traditional min")
	sdb := cellF(t, tab, row40, "SDB min")
	fast := cellF(t, tab, row40, "all-fast min")
	if !(fast < sdb && sdb < trad) {
		t.Fatalf("charge-time ordering broken at 40%%: %.1f / %.1f / %.1f", trad, sdb, fast)
	}
	// Paper: SDB reaches 40% roughly 3x faster than traditional.
	if ratio := trad / sdb; ratio < 2.0 || ratio > 4.5 {
		t.Errorf("SDB speedup to 40%% = %.2fx, paper ~3x", ratio)
	}
	// Every config's time-to-target grows with the target.
	for _, col := range []string{"traditional min", "SDB min", "all-fast min"} {
		prev := -1.0
		for i := range tab.Rows {
			v := cellF(t, tab, i, col)
			if v < prev {
				t.Errorf("%s: time to charge not monotone", col)
			}
			prev = v
		}
	}
}

func TestFigure11cShape(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-cycle endurance run")
	}
	tab, err := Figure11c(DefaultFigure11cCycles)
	if err != nil {
		t.Fatal(err)
	}
	trad := cellF(t, tab, 0, "retention %")
	mix := cellF(t, tab, 1, "retention %")
	fast := cellF(t, tab, 2, "retention %")
	if !(trad > mix && mix > fast) {
		t.Fatalf("longevity ordering broken: %.1f / %.1f / %.1f", trad, mix, fast)
	}
	// Paper: ~90% no-fast, ~78% all-fast, SDB between.
	if trad < 85 || trad > 95 {
		t.Errorf("no-fast retention %.1f%%, paper ~90%%", trad)
	}
	if fast < 72 || fast > 85 {
		t.Errorf("all-fast retention %.1f%%, paper ~78%%", fast)
	}
}

func TestFigure12Shape(t *testing.T) {
	tab, err := Figure12()
	if err != nil {
		t.Fatal(err)
	}
	// Rows: network low/med/high, compute low/med/high.
	if len(tab.Rows) != 6 {
		t.Fatalf("figure-12 rows = %d", len(tab.Rows))
	}
	netHighE := cellF(t, tab, 2, "energy (norm)")
	netHighL := cellF(t, tab, 2, "latency (norm)")
	cpuHighL := cellF(t, tab, 5, "latency (norm)")
	// Paper: network energy up ~20.6%, no latency gain; compute
	// latency down ~26%.
	if netHighE < 1.10 || netHighE > 1.30 {
		t.Errorf("network high energy = %.3f, paper ~1.206", netHighE)
	}
	if netHighL < 0.97 || netHighL > 1.03 {
		t.Errorf("network high latency = %.3f, want ~1.0", netHighL)
	}
	if cpuHighL < 0.70 || cpuHighL > 0.87 {
		t.Errorf("compute high latency = %.3f, paper ~0.79 (26%% better)", cpuHighL)
	}
}

func TestFigure13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("daylong emulation")
	}
	p1, err := RunFig13("policy1", core.RBLDischarge{DerivativeAware: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := RunFig13("policy2", core.Reserve{ReserveIdx: 0, HighPowerW: 0.4}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 13 with the evening run: the loss-minimizing policy
	// drains the Li-ion early (hour ~9.5) and the whole device dies
	// before the preserve policy does, by over an hour.
	if p1.LiIonDrainedH < 0 || p1.LiIonDrainedH > 13 {
		t.Errorf("policy1 Li-ion drained at %.1fh, paper ~9.5h", p1.LiIonDrainedH)
	}
	if p1.DeviceDiedH < 0 {
		t.Fatal("policy1 device never died; the day should outrun the pack")
	}
	if p2.DeviceDiedH < 0 {
		t.Fatal("policy2 device never died; the day should outrun the pack")
	}
	if gain := p2.DeviceDiedH - p1.DeviceDiedH; gain < 1.0 {
		t.Errorf("policy2 outlived policy1 by %.2fh, paper: over an hour", gain)
	}
	if p2.TotalLossJ >= p1.TotalLossJ {
		t.Errorf("policy2 losses (%.0f J) should undercut policy1 (%.0f J) when the run happens",
			p2.TotalLossJ, p1.TotalLossJ)
	}
}

func TestFigure13NoRunFlipsRanking(t *testing.T) {
	if testing.Short() {
		t.Skip("daylong emulation")
	}
	// Paper: "if the user had not gone for a run then the first policy
	// would have given better battery life".
	p1, err := RunFig13("policy1", core.RBLDischarge{DerivativeAware: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := RunFig13("policy2", core.Reserve{ReserveIdx: 0, HighPowerW: 0.4}, false)
	if err != nil {
		t.Fatal(err)
	}
	life := func(h float64) float64 {
		if h < 0 {
			return 24
		}
		return h
	}
	if life(p1.DeviceDiedH) < life(p2.DeviceDiedH) {
		t.Errorf("without the run, policy1 (%.1fh) should not trail policy2 (%.1fh)",
			life(p1.DeviceDiedH), life(p2.DeviceDiedH))
	}
}

func TestFigure14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hour emulations")
	}
	rows, err := RunFig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("figure-14 rows = %d", len(rows))
	}
	var maxImp float64
	for _, r := range rows {
		if r.ImprovementPct <= 0 {
			t.Errorf("workload %s: SDB (%.2fh) did not beat charge-through (%.2fh)",
				r.Workload, r.SDBHours, r.BaselineHours)
		}
		if r.ImprovementPct > maxImp {
			maxImp = r.ImprovementPct
		}
	}
	// Paper: around 22% improvement at the top end.
	if maxImp < 12 || maxImp > 35 {
		t.Errorf("max improvement %.1f%%, paper ~22%%", maxImp)
	}
}

func TestAblationSplitShape(t *testing.T) {
	tab, err := ablationSplit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Row order: fixed, proportional, rbl, rbl-derivative.
	fixed := cellF(t, tab, 0, "loss %")
	rbl := cellF(t, tab, 2, "loss %")
	if rbl > fixed {
		t.Errorf("RBL loss %.3f%% above the fixed 50/50 baseline %.3f%%", rbl, fixed)
	}
}

func TestAblationDirectiveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cycle emulation")
	}
	tab, err := ablationDirective(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	lossAt0 := cellF(t, tab, 0, "total loss J")
	lossAt1 := cellF(t, tab, len(tab.Rows)-1, "total loss J")
	ccbAt0 := cellF(t, tab, 0, "final CCB")
	ccbAt1 := cellF(t, tab, len(tab.Rows)-1, "final CCB")
	if lossAt1 > lossAt0 {
		t.Errorf("RBL extreme (d=1) lost %.0f J, more than CCB extreme %.0f J", lossAt1, lossAt0)
	}
	if ccbAt0 > ccbAt1 {
		t.Errorf("CCB extreme (d=0) ended with worse balance (%.2f) than RBL extreme (%.2f)", ccbAt0, ccbAt1)
	}
}

func TestSpiceRippleShape(t *testing.T) {
	tab, err := spiceRipple(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		uf := cellF(t, tab, i, "smoothing uF")
		ripple := cellF(t, tab, i, "ripple %")
		shareErr := cellF(t, tab, i, "share err %")
		if uf >= 200 && ripple > 2 {
			t.Errorf("row %d: %.0fuF ripple %.2f%% above 2%%", i, uf, ripple)
		}
		if shareErr > 8 {
			t.Errorf("row %d: share error %.2f%%", i, shareErr)
		}
	}
	// More capacitance means less ripple at the same duty.
	if r50 := cellF(t, tab, 0, "ripple %"); r50 <= cellF(t, tab, 1, "ripple %") {
		t.Error("50uF ripple not above 200uF ripple")
	}
}

func TestRegistryAndPrinting(t *testing.T) {
	exps := All()
	if len(exps) < 18 {
		t.Fatalf("registry has %d experiments", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("figure-12"); !ok {
		t.Error("ByID(figure-12) missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) found something")
	}
	// Print a fast experiment and sanity-check the rendering.
	tab, err := Figure6a()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "figure-6a") || !strings.Contains(out, "loss %") {
		t.Errorf("rendered table missing headers:\n%s", out)
	}
}

func TestExtPredictorShape(t *testing.T) {
	if testing.Short() {
		t.Skip("daylong emulations")
	}
	tab, err := extPredictor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	blind := cellF(t, tab, 0, "device dead h")
	hand := cellF(t, tab, 1, "device dead h")
	learned := cellF(t, tab, 2, "device dead h")
	if learned <= blind {
		t.Errorf("learned policy (%.2fh) did not beat the schedule-blind one (%.2fh)", learned, blind)
	}
	if learned > hand+0.1 {
		t.Errorf("learned policy (%.2fh) outperformed the hand-configured bound (%.2fh)?", learned, hand)
	}
	// The learned policy should recover at least a third of the gap.
	if (learned-blind)/(hand-blind) < 0.33 {
		t.Errorf("learned policy recovered only %.0f%% of the gap", (learned-blind)/(hand-blind)*100)
	}
}

func TestExtThermalShape(t *testing.T) {
	if testing.Short() {
		t.Skip("endurance run")
	}
	tab, err := extThermal(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Rows: 25 / 40 / 55 C ambient.
	peak25 := cellF(t, tab, 0, "peak cell C")
	peak55 := cellF(t, tab, 2, "peak cell C")
	if peak55 <= peak25 {
		t.Error("hotter ambient should raise peak cell temperature")
	}
	ret25 := cellF(t, tab, 0, "retention % @300")
	ret40 := cellF(t, tab, 1, "retention % @300")
	if ret40 >= ret25 {
		t.Errorf("40C cycling retention %.2f not below 25C %.2f", ret40, ret25)
	}
	chg25 := cellF(t, tab, 0, "charge min")
	chg55 := cellF(t, tab, 2, "charge min")
	if chg55 < 1.5*chg25 {
		t.Errorf("thermal throttling at 55C should stretch charging: %.1f vs %.1f min", chg55, chg25)
	}
}

func TestExtDeadlineShape(t *testing.T) {
	tab, err := ExtDeadline()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := tab.Cell(0, "feasible"); got != "false" {
		t.Errorf("30-minute dash to 80%% should be infeasible, got %s", got)
	}
	// Rates and damage fall monotonically as the deadline relaxes.
	for _, col := range []string{"fast-cell C", "dense-cell C", "damage ppm"} {
		prev := -1.0
		for i := 1; i < len(tab.Rows); i++ { // skip the infeasible row
			v := cellF(t, tab, i, col)
			if prev >= 0 && v > prev+1e-9 {
				t.Errorf("%s not monotone at row %d: %g after %g", col, i, v, prev)
			}
			prev = v
		}
	}
}

func TestExtEVShape(t *testing.T) {
	if testing.Short() {
		t.Skip("route emulations")
	}
	tab, err := ExtEV()
	if err != nil {
		t.Fatal(err)
	}
	baseCap := cellF(t, tab, 0, "capture %")
	blindCap := cellF(t, tab, 1, "capture %")
	navCap := cellF(t, tab, 2, "capture %")
	if navCap <= baseCap+15 {
		t.Errorf("NAV capture %.1f%% not clearly above either-or %.1f%%", navCap, baseCap)
	}
	if navCap < blindCap+10 {
		t.Errorf("NAV capture %.1f%% not clearly above route-blind %.1f%%", navCap, blindCap)
	}
	baseNet := cellF(t, tab, 0, "net battery kJ")
	navNet := cellF(t, tab, 2, "net battery kJ")
	if navNet >= baseNet {
		t.Errorf("NAV net consumption %.0f kJ not below baseline %.0f kJ", navNet, baseNet)
	}
}

func TestSpiceBuckShape(t *testing.T) {
	tab, err := spiceBuck(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Battery current is monotone in duty and flips sign across the
	// Vbatt/Vin balance point.
	prev := -1e18
	for i := range tab.Rows {
		v := cellF(t, tab, i, "battery A")
		if v < prev {
			t.Errorf("battery current not monotone in duty at row %d", i)
		}
		prev = v
	}
	if first := cellF(t, tab, 0, "battery A"); first >= 0 {
		t.Errorf("duty 25%% should run in reverse (got %g A)", first)
	}
	if last := cellF(t, tab, len(tab.Rows)-1, "battery A"); last <= 0 {
		t.Errorf("duty 60%% should charge (got %g A)", last)
	}
}

func TestExtYearShape(t *testing.T) {
	if testing.Short() {
		t.Skip("year-long emulation")
	}
	tab, err := extYear(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gentleRet := cellF(t, tab, 0, "capacity after 1y %")
	fastRet := cellF(t, tab, 1, "capacity after 1y %")
	awareRet := cellF(t, tab, 2, "capacity after 1y %")
	if !(gentleRet > awareRet && awareRet > fastRet) {
		t.Errorf("retention ordering broken: gentle %.2f / aware %.2f / fast %.2f",
			gentleRet, awareRet, fastRet)
	}
	gentleMin := cellF(t, tab, 0, "mean overnight charge min")
	fastMin := cellF(t, tab, 1, "mean overnight charge min")
	awareMin := cellF(t, tab, 2, "mean overnight charge min")
	if !(fastMin < awareMin && awareMin < gentleMin) {
		t.Errorf("charge-time ordering broken: fast %.0f / aware %.0f / gentle %.0f",
			fastMin, awareMin, gentleMin)
	}
}

func TestExtQuadShape(t *testing.T) {
	tab, err := extQuad(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("ext-quad rows = %d", len(tab.Rows))
	}
	fixed := cellF(t, tab, 0, "loss %")
	prop := cellF(t, tab, 1, "loss %")
	rbl := cellF(t, tab, 2, "loss %")
	if !(rbl <= prop && prop <= fixed) {
		t.Errorf("loss ordering broken at N=4: fixed %.3f / prop %.3f / rbl %.3f", fixed, prop, rbl)
	}
}

func TestTable2Driver(t *testing.T) {
	tab, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("table-2 rows = %d, want 3 (paper Table 2)", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if len(row) != 3 || row[0] == "" || row[2] == "" {
			t.Errorf("row %d incomplete: %v", i, row)
		}
	}
}
