package sim

import (
	"context"
	"fmt"
	"math"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/spice"
	"sdb/internal/workload"
)

// ablationSplit compares current-split strategies on a heterogeneous
// pack over a fixed mixed workload (DESIGN.md Section 5): the naive
// 50/50 split, the traditional parallel-pack inverse-resistance split,
// and the two RBL variants.
//
// It runs the four policies' emulations in parallel.
func ablationSplit(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "ablation-split",
		Title:   "Current-split strategy vs. total losses (design ablation)",
		Columns: []string{"policy", "delivered J", "total loss J", "loss %"},
		Notes:   "loss-aware splits must beat the fixed and parallel-pack baselines on a heterogeneous pack",
	}
	policies := []core.DischargePolicy{
		core.FixedRatios{Label: "fixed-50/50", Ratios: []float64{0.5, 0.5}},
		core.Proportional{},
		core.RBLDischarge{},
		core.RBLDischarge{DerivativeAware: true},
	}
	// A LiFePO4 power cell next to a CoO2 cell: the chemistries differ
	// in open-circuit voltage, which separates the parallel-pack 1/R
	// split from the loss-optimal V^2/R split.
	tr := workload.Square("mixed", 0.5, 6.0, 600, 0.3, 2*3600, 1)
	results := make([]*emulator.Result, len(policies))
	if err := forEach(ctx, len(policies), func(i int) error {
		st, err := emulator.NewStack(1.0, core.Options{DischargePolicy: policies[i]},
			battery.MustByName("PowerTool-1500"),
			battery.MustByName("Standard-2000"))
		if err != nil {
			return err
		}
		res, err := emulate(emulator.Config{
			Controller: st.Controller, Runtime: st.Runtime, Trace: tr,
		})
		if err != nil {
			return fmt.Errorf("sim: ablation %s: %w", policies[i].Name(), err)
		}
		results[i] = res
		return nil
	}); err != nil {
		return nil, err
	}
	for i, p := range policies {
		res := results[i]
		loss := res.CircuitLossJ + res.BatteryLossJ
		t.AddRowf(p.Name(), res.DeliveredJ, loss, loss/(res.DeliveredJ+loss)*100)
	}
	return t, nil
}

// ablationDirective sweeps the discharging directive parameter from 0
// (pure CCB) to 1 (pure RBL) on a pack with asymmetric wear and
// reports where each extreme pays: losses during the run versus wear
// balance after it.
//
// It runs the five directives' packs in parallel.
func ablationDirective(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "ablation-directive",
		Title:   "Directive parameter sweep: losses vs. cycle balance (design ablation)",
		Columns: []string{"directive", "total loss J", "final CCB"},
		Notes:   "directive 1 (RBL) minimizes losses; directive 0 (CCB) minimizes wear imbalance",
	}
	tr := workload.Square("daily", 0.5, 5.0, 600, 0.4, 3*3600, 5)
	charge := workload.ChargeSession("refill", 30, 0.2, 2*3600, 5)
	directives := []float64{0, 0.25, 0.5, 0.75, 1}
	type directiveResult struct{ loss, ccb float64 }
	results := make([]directiveResult, len(directives))
	if err := forEach(ctx, len(directives), func(i int) error {
		st, err := emulator.NewStack(1.0, core.Options{
			ChargingDirective:    directives[i],
			DischargingDirective: directives[i],
		},
			battery.MustByName("PowerPlus-2500"),
			battery.MustByName("Standard-3000"))
		if err != nil {
			return err
		}
		// Pre-age cell 0 so CCB has an imbalance to correct: the CCB
		// extreme should route throughput to the fresher cell 1 and
		// close the gap over the cycles below; the RBL extreme ignores
		// wear and leaves the gap in place.
		preAge(st.Pack.Cell(0), 40)
		var totalLoss float64
		for cycle := 0; cycle < 25; cycle++ {
			res, err := emulate(emulator.Config{
				Controller: st.Controller, Runtime: st.Runtime, Trace: tr,
			})
			if err != nil {
				return err
			}
			totalLoss += res.CircuitLossJ + res.BatteryLossJ
			if _, err := emulate(emulator.Config{
				Controller: st.Controller, Runtime: st.Runtime, Trace: charge,
			}); err != nil {
				return err
			}
		}
		m, err := st.Runtime.Metrics()
		if err != nil {
			return err
		}
		results[i] = directiveResult{totalLoss, m.CCB}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, d := range directives {
		t.AddRowf(d, results[i].loss, results[i].ccb)
	}
	return t, nil
}

// preAge runs n quick cycles on a cell to advance its wear counters.
func preAge(c *battery.Cell, n int) {
	var steps int64
	for k := 0; k < n; k++ {
		c.SetSoC(0.1)
		for !c.Full() {
			steps++
			c.StepCurrent(-c.Capacity()/3600, 60)
		}
	}
	c.SetSoC(1)
	battery.AddSteps(steps)
}

// spiceRipple reruns the Section 3.2.1 LTSPICE-style validation: the
// weighted round-robin switch feeding a smoothing capacitor, across
// duty settings and capacitor sizes, reporting output ripple.
//
// It runs the six (duty, capacitor) transients in parallel.
func spiceRipple(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "spice-ripple",
		Title:   "Regulator ripple under weighted round-robin switching (Section 3.2.1 validation)",
		Columns: []string{"duty %", "smoothing uF", "ripple %", "share err %"},
		Notes:   "with the design-size capacitor the load sees <2% ripple and shares track duty",
	}
	type rippleCase struct{ duty, uF, ripple, share float64 }
	var cases []rippleCase
	for _, duty := range []float64{0.3, 0.5, 0.7} {
		for _, uF := range []float64{50, 200} {
			cases = append(cases, rippleCase{duty: duty, uF: uF})
		}
	}
	if err := forEach(ctx, len(cases), func(i int) error {
		c := &cases[i]
		var err error
		c.ripple, c.share, err = runRippleCase(c.duty, c.uF*1e-6)
		return err
	}); err != nil {
		return nil, err
	}
	for _, c := range cases {
		t.AddRowf(c.duty*100, c.uF, c.ripple*100, math.Abs(c.share-c.duty)*100)
	}
	return t, nil
}

// runRippleCase builds the two-battery WRR circuit and measures output
// ripple and battery-1 charge share in steady state.
func runRippleCase(duty, farads float64) (ripple, share float64, err error) {
	c := spice.New()
	b1 := c.Node("b1")
	b2 := c.Node("b2")
	s1in := c.Node("s1in")
	s2in := c.Node("s2in")
	out := c.Node("out")
	if err := c.AddDCVoltageSource("VB1", b1, spice.Ground, 4.0); err != nil {
		return 0, 0, err
	}
	if err := c.AddDCVoltageSource("VB2", b2, spice.Ground, 4.0); err != nil {
		return 0, 0, err
	}
	if err := c.AddResistor("R1", b1, s1in, 0.1); err != nil {
		return 0, 0, err
	}
	if err := c.AddResistor("R2", b2, s2in, 0.1); err != nil {
		return 0, 0, err
	}
	const period = 20e-6
	// Real switch drivers insert dead time between the two conduction
	// phases (shoot-through protection); during it the capacitor
	// alone carries the load, which is where the output ripple comes
	// from.
	const conduct = 0.95
	phase := func(t float64) float64 { return math.Mod(t, period) / period }
	if err := c.AddSwitch("S1", s1in, out, 0.02, 1e8, func(t float64) bool {
		return phase(t) < duty*conduct
	}); err != nil {
		return 0, 0, err
	}
	if err := c.AddSwitch("S2", s2in, out, 0.02, 1e8, func(t float64) bool {
		p := phase(t)
		return p >= duty && p < duty+(1-duty)*conduct
	}); err != nil {
		return 0, 0, err
	}
	if err := c.AddCapacitor("Cs", out, spice.Ground, farads, 3.9); err != nil {
		return 0, 0, err
	}
	if err := c.AddResistor("RL", out, spice.Ground, 4.0); err != nil {
		return 0, 0, err
	}
	res, err := c.Transient(2e-3, 0.5e-6)
	if err != nil {
		return 0, 0, err
	}
	v := res.Voltage(out)
	half := v[len(v)/2:]
	min, max, sum := half[0], half[0], 0.0
	for _, x := range half {
		min = math.Min(min, x)
		max = math.Max(max, x)
		sum += x
	}
	mean := sum / float64(len(half))
	i1, _ := res.BranchCurrent("VB1")
	i2, _ := res.BranchCurrent("VB2")
	var q1, q2 float64
	for k := len(i1) / 2; k < len(i1); k++ {
		q1 += -i1[k]
		q2 += -i2[k]
	}
	return (max - min) / mean, q1 / (q1 + q2), nil
}
