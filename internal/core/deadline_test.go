package core

import (
	"math"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/firmware"
	"sdb/internal/pmic"
)

// deadlineFixture returns a fast-charge + high-density pack at the
// given state of charge with matching specs.
func deadlineFixture(soc float64) ([]pmic.BatteryStatus, []ChargeSpec) {
	fc := battery.MustByName("QuickCharge-2000")
	hd := battery.MustByName("EnergyMax-4000")
	sts := []pmic.BatteryStatus{
		{SoC: soc, TerminalV: 3.7, CapacityCoulombs: fc.CapacityCoulombs()},
		{SoC: soc, TerminalV: 3.7, CapacityCoulombs: hd.CapacityCoulombs()},
	}
	return sts, []ChargeSpec{SpecFromParams(fc), SpecFromParams(hd)}
}

func TestPlanValidation(t *testing.T) {
	sts, specs := deadlineFixture(0.2)
	if _, err := PlanDeadlineCharge(nil, nil, 0.5, 3600); err == nil {
		t.Error("empty status accepted")
	}
	if _, err := PlanDeadlineCharge(sts, specs[:1], 0.5, 3600); err == nil {
		t.Error("spec length mismatch accepted")
	}
	if _, err := PlanDeadlineCharge(sts, specs, 0, 3600); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := PlanDeadlineCharge(sts, specs, 1.5, 3600); err == nil {
		t.Error("target > 1 accepted")
	}
	if _, err := PlanDeadlineCharge(sts, specs, 0.5, 0); err == nil {
		t.Error("zero deadline accepted")
	}
	bad := specs
	bad[0].MaxChargeC = 0
	if _, err := PlanDeadlineCharge(sts, bad, 0.5, 3600); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestPlanAlreadyAtTarget(t *testing.T) {
	sts, specs := deadlineFixture(0.8)
	plan, err := PlanDeadlineCharge(sts, specs, 0.5, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Error("already-met target reported infeasible")
	}
	for i, c := range plan.RatesC {
		if c != 0 {
			t.Errorf("battery %d commanded rate %g with target already met", i, c)
		}
	}
}

func TestPlanMeetsTargetExactly(t *testing.T) {
	sts, specs := deadlineFixture(0.2)
	const target, deadline = 0.6, 2 * 3600.0
	plan, err := PlanDeadlineCharge(sts, specs, target, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("plan infeasible for a 2h deadline to 60%")
	}
	// Integrate the planned rates: delivered coulombs must reach the
	// target within a small tolerance.
	var have, capTotal float64
	for i, st := range sts {
		capTotal += st.CapacityCoulombs
		have += st.SoC * st.CapacityCoulombs
		room := (1 - st.SoC) * st.CapacityCoulombs
		have += math.Min(plan.RatesC[i]*st.CapacityCoulombs/3600*deadline, room)
	}
	if frac := have / capTotal; frac < target-0.01 {
		t.Errorf("plan delivers %.3f, target %.3f", frac, target)
	}
	if plan.AchievableFraction < target-1e-9 {
		t.Errorf("AchievableFraction %.3f below target", plan.AchievableFraction)
	}
}

func TestPlanFavorsFastChargeCell(t *testing.T) {
	sts, specs := deadlineFixture(0.1)
	// Tight deadline: both must work, but the fast-charge chemistry
	// (rated for high rates, flat fade curve at 2C reference) should
	// carry a higher C-rate than the fragile high-density cell.
	plan, err := PlanDeadlineCharge(sts, specs, 0.6, 1.2*3600)
	if err != nil {
		t.Fatal(err)
	}
	if plan.RatesC[0] <= plan.RatesC[1] {
		t.Errorf("fast cell rate %.3fC not above dense cell %.3fC", plan.RatesC[0], plan.RatesC[1])
	}
}

func TestLongerDeadlineGentlerPlan(t *testing.T) {
	sts, specs := deadlineFixture(0.1)
	rush, err := PlanDeadlineCharge(sts, specs, 0.7, 1*3600)
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := PlanDeadlineCharge(sts, specs, 0.7, 6*3600)
	if err != nil {
		t.Fatal(err)
	}
	if !rush.Feasible || !relaxed.Feasible {
		t.Fatalf("feasibility: rush=%v relaxed=%v", rush.Feasible, relaxed.Feasible)
	}
	for i := range rush.RatesC {
		if relaxed.RatesC[i] > rush.RatesC[i]+1e-9 {
			t.Errorf("battery %d: relaxed rate %.3f above rushed %.3f", i, relaxed.RatesC[i], rush.RatesC[i])
		}
	}
	if relaxed.DamageFraction >= rush.DamageFraction {
		t.Errorf("relaxed damage %.3g not below rushed %.3g", relaxed.DamageFraction, rush.DamageFraction)
	}
}

func TestPlanInfeasibleReportsAchievable(t *testing.T) {
	sts, specs := deadlineFixture(0.0)
	// Five minutes to full: impossible.
	plan, err := PlanDeadlineCharge(sts, specs, 1.0, 300)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible {
		t.Fatal("impossible plan reported feasible")
	}
	if plan.AchievableFraction <= 0 || plan.AchievableFraction >= 1 {
		t.Errorf("achievable = %.3f", plan.AchievableFraction)
	}
	for i, c := range plan.RatesC {
		if math.Abs(c-specs[i].MaxChargeC) > 1e-9 {
			t.Errorf("infeasible plan should max battery %d: %g vs %g", i, c, specs[i].MaxChargeC)
		}
	}
}

func TestPlanRatiosValid(t *testing.T) {
	sts, specs := deadlineFixture(0.2)
	plan, err := PlanDeadlineCharge(sts, specs, 0.7, 3600)
	if err != nil {
		t.Fatal(err)
	}
	checkRatios(t, plan.Ratios)
	if plan.SupplyW <= 0 {
		t.Error("plan draws no power")
	}
}

func TestPlanRespectsRateLimits(t *testing.T) {
	sts, specs := deadlineFixture(0.0)
	plan, err := PlanDeadlineCharge(sts, specs, 0.9, 1800)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range plan.RatesC {
		if c > specs[i].MaxChargeC+1e-9 {
			t.Errorf("battery %d over rate limit: %g > %g", i, c, specs[i].MaxChargeC)
		}
	}
}

// TestPlanEndToEnd executes a plan on the real stack and verifies the
// pack hits the target by the deadline.
func TestPlanEndToEnd(t *testing.T) {
	fc := battery.MustByName("QuickCharge-2000")
	hd := battery.MustByName("EnergyMax-4000")
	a := battery.MustNew(fc)
	b := battery.MustNew(hd)
	a.SetSoC(0.15)
	b.SetSoC(0.15)
	cfg := firmware.DefaultConfig(battery.MustNewPack(a, b))
	cfg.Charger.MaxCurrentA = 15
	ctrl, err := firmware.NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sts, err := ctrl.QueryBatteryStatus()
	if err != nil {
		t.Fatal(err)
	}
	specs := []ChargeSpec{SpecFromParams(fc), SpecFromParams(hd)}
	const target, deadline = 0.55, 3 * 3600.0
	plan, err := PlanDeadlineCharge(sts, specs, target, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatal("plan infeasible")
	}
	if err := ctrl.Charge(plan.Ratios); err != nil {
		t.Fatal(err)
	}
	// The firmware profile caps rates; pick fast so the plan's rates,
	// not the profile, bind.
	for i := 0; i < 2; i++ {
		if err := ctrl.SetChargeProfile(i, "fast"); err != nil {
			t.Fatal(err)
		}
	}
	// Supply sized to the plan (plus converter losses).
	supply := plan.SupplyW * 1.15
	for tS := 0.0; tS < deadline; tS += 10 {
		if _, err := ctrl.Step(0, supply, 10); err != nil {
			t.Fatal(err)
		}
	}
	var have, capTotal float64
	pack := ctrl.Pack()
	for i := 0; i < pack.N(); i++ {
		have += pack.Cell(i).SoC() * pack.Cell(i).Capacity()
		capTotal += pack.Cell(i).Capacity()
	}
	if frac := have / capTotal; frac < target-0.03 {
		t.Errorf("pack at %.3f by deadline, target %.3f", frac, target)
	}
}
