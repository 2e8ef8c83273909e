package pmic_test

import (
	"math"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/circuit"
	"sdb/internal/firmware"
)

// newTestController builds a 2-cell controller: fast-charge + high
// density, both at the given state of charge.
func newTestController(t *testing.T, soc float64) *firmware.Controller {
	t.Helper()
	a := battery.MustNew(battery.MustByName("QuickCharge-2000"))
	b := battery.MustNew(battery.MustByName("Standard-2000"))
	a.SetSoC(soc)
	b.SetSoC(soc)
	pack := battery.MustNewPack(a, b)
	c, err := firmware.NewController(firmware.DefaultConfig(pack))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewControllerValidation(t *testing.T) {
	if _, err := firmware.NewController(firmware.Config{}); err == nil {
		t.Error("nil pack accepted")
	}
	pack := battery.MustNewPack(battery.MustNew(battery.MustByName("Watch-200")))
	cfg := firmware.DefaultConfig(pack)
	cfg.Profiles = nil
	if _, err := firmware.NewController(cfg); err == nil {
		t.Error("empty profile table accepted")
	}
	cfg = firmware.DefaultConfig(pack)
	cfg.DefaultProfile = "bogus"
	if _, err := firmware.NewController(cfg); err == nil {
		t.Error("unknown default profile accepted")
	}
}

func TestControllerStartsBalanced(t *testing.T) {
	c := newTestController(t, 1)
	dis, chg := c.Ratios()
	for _, r := range append(dis, chg...) {
		if math.Abs(r-0.5) > 1e-12 {
			t.Fatalf("initial ratios not uniform: %v %v", dis, chg)
		}
	}
}

func TestDischargeRatioValidation(t *testing.T) {
	c := newTestController(t, 1)
	if err := c.Discharge([]float64{0.5}); err == nil {
		t.Error("wrong-length ratio vector accepted")
	}
	if err := c.Discharge([]float64{0.9, 0.2}); err == nil {
		t.Error("non-normalized ratios accepted")
	}
	if err := c.Discharge([]float64{1.5, -0.5}); err == nil {
		t.Error("negative ratio accepted")
	}
	if err := c.Discharge([]float64{0.25, 0.75}); err != nil {
		t.Errorf("valid ratios rejected: %v", err)
	}
}

// TestStepValidation: a step with a non-positive or non-finite dt, or a
// negative or non-finite load or supply, is an error before any state
// moves (a NaN once reached the curve tables and panicked there).
func TestStepValidation(t *testing.T) {
	c := newTestController(t, 1)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name             string
		load, supply, dt float64
	}{
		{"dt=0", 1, 0, 0},
		{"negative dt", 1, 0, -1},
		{"NaN dt", 1, 0, nan},
		{"+Inf dt", 1, 0, inf},
		{"negative load", -1, 0, 1},
		{"NaN load", nan, 0, 1},
		{"+Inf load", inf, 0, 1},
		{"negative supply", 1, -1, 1},
		{"NaN supply", 1, nan, 1},
		{"+Inf supply", 1, inf, 1},
	} {
		if _, err := c.Step(tc.load, tc.supply, tc.dt); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if got := c.StepCount(); got != 0 {
		t.Errorf("rejected steps counted: %d", got)
	}
	if _, err := c.Step(1, 0, 1); err != nil {
		t.Errorf("valid step after rejections: %v", err)
	}
}

func TestDischargeFollowsRatios(t *testing.T) {
	c := newTestController(t, 0.9)
	mustNoErr(t, c.Discharge([]float64{0.8, 0.2}))
	var w0, w1 float64
	for k := 0; k < 60; k++ {
		rep, err := c.Step(3.0, 0, 1)
		mustNoErr(t, err)
		w0 += rep.PerCellW[0]
		w1 += rep.PerCellW[1]
	}
	share := w0 / (w0 + w1)
	if math.Abs(share-0.8) > 0.02 {
		t.Errorf("cell 0 power share = %.3f, want ~0.80", share)
	}
}

func TestDischargeDeliversLoad(t *testing.T) {
	c := newTestController(t, 0.9)
	rep, err := c.Step(2.0, 0, 1)
	mustNoErr(t, err)
	if math.Abs(rep.DeliveredW-2.0) > 0.05 {
		t.Errorf("delivered %g W for a 2 W load", rep.DeliveredW)
	}
	if rep.CircuitLossW <= 0 {
		t.Error("no circuit loss on discharge")
	}
	if rep.Faults != firmware.FaultNone {
		t.Errorf("unexpected faults %b", rep.Faults)
	}
}

func TestDischargeZeroLoad(t *testing.T) {
	c := newTestController(t, 0.9)
	rep, err := c.Step(0, 0, 1)
	mustNoErr(t, err)
	if rep.DeliveredW != 0 || rep.CircuitLossW != 0 {
		t.Errorf("zero load: delivered %g, loss %g", rep.DeliveredW, rep.CircuitLossW)
	}
}

func TestSingleBatteryRatioRoutesAllLoad(t *testing.T) {
	c := newTestController(t, 0.9)
	mustNoErr(t, c.Discharge([]float64{1, 0}))
	rep, err := c.Step(2.0, 0, 1)
	mustNoErr(t, err)
	if rep.PerCellW[1] > 1e-9 {
		t.Errorf("cell 1 supplied %g W with a zero ratio", rep.PerCellW[1])
	}
	if rep.PerCellW[0] < 2.0 {
		t.Errorf("cell 0 supplied %g W, want > 2 (load + loss)", rep.PerCellW[0])
	}
}

func TestRedistributionWhenOneCellEmpty(t *testing.T) {
	c := newTestController(t, 0.9)
	c.Pack().Cell(0).SetSoC(0) // cell 0 is drained
	mustNoErr(t, c.Discharge([]float64{0.5, 0.5}))
	rep, err := c.Step(2.0, 0, 1)
	mustNoErr(t, err)
	if rep.PerCellW[0] > 1e-6 {
		t.Errorf("empty cell supplied %g W", rep.PerCellW[0])
	}
	// Cell 1 should pick up the whole load.
	if math.Abs(rep.DeliveredW-2.0) > 0.05 {
		t.Errorf("delivered %g W; healthy cell did not absorb the slack", rep.DeliveredW)
	}
	if rep.Faults&firmware.FaultBrownout != 0 {
		t.Error("brownout fault despite sufficient healthy capacity")
	}
}

func TestBrownoutFaultWhenPackExhausted(t *testing.T) {
	c := newTestController(t, 0.9)
	c.Pack().Cell(0).SetSoC(0)
	c.Pack().Cell(1).SetSoC(0)
	rep, err := c.Step(2.0, 0, 1)
	mustNoErr(t, err)
	if rep.Faults&firmware.FaultBrownout == 0 {
		t.Error("no brownout fault from an exhausted pack")
	}
	if rep.DeliveredW > 0.01 {
		t.Errorf("exhausted pack delivered %g W", rep.DeliveredW)
	}
}

func TestChargingSplitsExternalPower(t *testing.T) {
	c := newTestController(t, 0.2)
	mustNoErr(t, c.Charge([]float64{0.5, 0.5}))
	rep, err := c.Step(0, 10, 1)
	mustNoErr(t, err)
	if rep.ChargedW <= 0 {
		t.Fatal("no charging with 10 W external power")
	}
	if rep.PerCellW[0] >= 0 || rep.PerCellW[1] >= 0 {
		t.Errorf("cells not charging: %v", rep.PerCellW)
	}
}

func TestChargingRespectsProfileTrickle(t *testing.T) {
	c := newTestController(t, 0.85) // above the 0.8 trickle threshold
	rep, err := c.Step(0, 50, 1)
	mustNoErr(t, err)
	// Trickle at 0.1C on 2 Ah cells = 0.2 A; at ~4 V that is < 1 W/cell.
	for i, w := range rep.PerCellW {
		if -w > 1.5 {
			t.Errorf("cell %d charging at %g W above trickle threshold", i, -w)
		}
	}
}

func TestFastProfileChargesFaster(t *testing.T) {
	std := newTestController(t, 0.2)
	fast := newTestController(t, 0.2)
	mustNoErr(t, fast.SetChargeProfile(0, "fast"))
	repS, err := std.Step(0, 50, 1)
	mustNoErr(t, err)
	repF, err := fast.Step(0, 50, 1)
	mustNoErr(t, err)
	if -repF.PerCellW[0] <= -repS.PerCellW[0] {
		t.Errorf("fast profile (%g W) not faster than standard (%g W)",
			-repF.PerCellW[0], -repS.PerCellW[0])
	}
}

func TestSetChargeProfileValidation(t *testing.T) {
	c := newTestController(t, 0.5)
	if err := c.SetChargeProfile(5, "fast"); err == nil {
		t.Error("out-of-range battery accepted")
	}
	if err := c.SetChargeProfile(0, "warp"); err == nil {
		t.Error("unknown profile accepted")
	}
	if err := c.SetChargeProfile(0, "gentle"); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}

func TestLoadServedBeforeChargingWhenPlugged(t *testing.T) {
	c := newTestController(t, 0.5)
	rep, err := c.Step(8, 10, 1)
	mustNoErr(t, err)
	if rep.DeliveredW != 8 {
		t.Errorf("delivered %g W, want the full 8 W from external", rep.DeliveredW)
	}
	if rep.ChargedW <= 0 {
		t.Error("leftover supply power did not charge the pack")
	}
}

func TestBatteriesAssistWeakSupply(t *testing.T) {
	c := newTestController(t, 0.9)
	rep, err := c.Step(10, 4, 1)
	mustNoErr(t, err)
	if math.Abs(rep.DeliveredW-10) > 0.1 {
		t.Errorf("delivered %g W with supply assist, want ~10", rep.DeliveredW)
	}
	if rep.PerCellW[0]+rep.PerCellW[1] < 5.9 {
		t.Errorf("batteries supplied %g W, want ~6", rep.PerCellW[0]+rep.PerCellW[1])
	}
}

func TestChargeOneFromAnotherValidation(t *testing.T) {
	c := newTestController(t, 0.5)
	cases := []struct {
		x, y int
		w, d float64
	}{
		{-1, 1, 1, 1}, {0, 9, 1, 1}, {0, 0, 1, 1}, {0, 1, 0, 1}, {0, 1, 1, 0},
	}
	for _, tc := range cases {
		if err := c.ChargeOneFromAnother(tc.x, tc.y, tc.w, tc.d); err == nil {
			t.Errorf("invalid transfer (%d,%d,%g,%g) accepted", tc.x, tc.y, tc.w, tc.d)
		}
	}
}

func TestTransferMovesCharge(t *testing.T) {
	c := newTestController(t, 0.5)
	src, dst := c.Pack().Cell(0), c.Pack().Cell(1)
	srcBefore, dstBefore := src.SoC(), dst.SoC()
	mustNoErr(t, c.ChargeOneFromAnother(0, 1, 2.0, 60))
	for k := 0; k < 60; k++ {
		_, err := c.Step(0, 0, 1)
		mustNoErr(t, err)
	}
	if src.SoC() >= srcBefore {
		t.Error("transfer source did not drain")
	}
	if dst.SoC() <= dstBefore {
		t.Error("transfer destination did not charge")
	}
	if c.TransferActive() {
		t.Error("transfer still active after its duration elapsed")
	}
}

func TestTransferLosesEnergyToDoubleConversion(t *testing.T) {
	c := newTestController(t, 0.5)
	src, dst := c.Pack().Cell(0), c.Pack().Cell(1)
	eBefore := src.EnergyRemainingJ() + dst.EnergyRemainingJ()
	mustNoErr(t, c.ChargeOneFromAnother(0, 1, 2.0, 600))
	for k := 0; k < 600; k++ {
		_, err := c.Step(0, 0, 1)
		mustNoErr(t, err)
	}
	eAfter := src.EnergyRemainingJ() + dst.EnergyRemainingJ()
	if eAfter >= eBefore {
		t.Error("battery-to-battery transfer created energy")
	}
	// Roughly: 2 W * 600 s = 1200 J moved; double conversion at ~92%
	// each plus cell resistive losses should dissipate well over 5%.
	if lost := eBefore - eAfter; lost < 0.05*1200 {
		t.Errorf("transfer lost only %g J; double conversion should cost more", lost)
	}
}

func TestTransferAbortsWhenSourceEmpties(t *testing.T) {
	c := newTestController(t, 0.5)
	c.Pack().Cell(0).SetSoC(0.0005)
	mustNoErr(t, c.ChargeOneFromAnother(0, 1, 2.0, 3600))
	var aborted bool
	for k := 0; k < 600 && !aborted; k++ {
		rep, err := c.Step(0, 0, 1)
		mustNoErr(t, err)
		aborted = rep.Faults&firmware.FaultTransferAborted != 0
	}
	if !aborted {
		t.Error("transfer from a drained cell never aborted")
	}
	if c.TransferActive() {
		t.Error("aborted transfer still active")
	}
}

func TestCancelTransfer(t *testing.T) {
	c := newTestController(t, 0.5)
	mustNoErr(t, c.ChargeOneFromAnother(0, 1, 1.0, 3600))
	if !c.TransferActive() {
		t.Fatal("transfer not active after request")
	}
	c.CancelTransfer()
	if c.TransferActive() {
		t.Error("transfer active after cancel")
	}
}

func TestQueryBatteryStatus(t *testing.T) {
	c := newTestController(t, 0.7)
	sts, err := c.QueryBatteryStatus()
	mustNoErr(t, err)
	if len(sts) != 2 {
		t.Fatalf("status count = %d", len(sts))
	}
	if sts[0].Name != "QuickCharge-2000" || sts[1].Name != "Standard-2000" {
		t.Errorf("names = %s, %s", sts[0].Name, sts[1].Name)
	}
	for i, s := range sts {
		if s.Index != i {
			t.Errorf("status %d has index %d", i, s.Index)
		}
		if math.Abs(s.SoC-0.7) > 1e-9 {
			t.Errorf("status %d SoC = %g", i, s.SoC)
		}
		if s.TerminalV <= 0 || s.DCIR <= 0 || s.MaxDischargeW <= 0 {
			t.Errorf("status %d has non-positive electricals: %+v", i, s)
		}
	}
}

func TestGaugesTrackDischarge(t *testing.T) {
	c := newTestController(t, 1)
	for k := 0; k < 600; k++ {
		_, err := c.Step(2.0, 0, 1)
		mustNoErr(t, err)
	}
	for i := 0; i < 2; i++ {
		if err := c.Gauge(i).Error(); err > 0.02 {
			t.Errorf("gauge %d error %g after discharge", i, err)
		}
	}
}

func TestBatteryCount(t *testing.T) {
	c := newTestController(t, 1)
	n, err := c.BatteryCount()
	mustNoErr(t, err)
	if n != 2 {
		t.Errorf("BatteryCount = %d", n)
	}
}

func mustNoErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestCVTaperNearFull(t *testing.T) {
	// Build a CC-only profile (no trickle phase) so the CV ceiling is
	// the only thing limiting near-full charging, then compare with
	// and without it.
	mk := func(cv float64) *firmware.Controller {
		a := battery.MustNew(battery.MustByName("QuickCharge-2000"))
		b := battery.MustNew(battery.MustByName("Standard-2000"))
		a.SetSoC(0.96)
		b.SetSoC(0.96)
		cfg := firmware.DefaultConfig(battery.MustNewPack(a, b))
		cfg.Profiles = []circuit.ChargeProfile{{
			Name: "ccv", CRate: 0.7, TrickleCRate: 0.7, ThresholdSoC: 1.0, CVVoltage: cv,
		}}
		cfg.DefaultProfile = "ccv"
		c, err := firmware.NewController(cfg)
		mustNoErr(t, err)
		return c
	}
	withCV := mk(4.20)
	noCV := mk(0)
	repCV, err := withCV.Step(0, 50, 1)
	mustNoErr(t, err)
	repNo, err := noCV.Step(0, 50, 1)
	mustNoErr(t, err)
	if repCV.ChargedW >= repNo.ChargedW*0.95 {
		t.Errorf("CV taper did not reduce near-full charging: %g W vs %g W",
			repCV.ChargedW, repNo.ChargedW)
	}
	// And the CV cell's terminal voltage respects the ceiling.
	for i := 0; i < 2; i++ {
		rep, err := withCV.Step(0, 50, 1)
		mustNoErr(t, err)
		for j := 0; j < 2; j++ {
			cell := withCV.Pack().Cell(j)
			if v := cell.TerminalVoltage(rep.PerCellA[j]); v > 4.20+0.02 {
				t.Fatalf("step %d cell %d terminal voltage %g exceeds CV", i, j, v)
			}
		}
	}
}

func TestCVCeilingHoldsTerminalVoltage(t *testing.T) {
	c := newTestController(t, 0.9)
	for k := 0; k < 600; k++ {
		rep, err := c.Step(0, 50, 1)
		mustNoErr(t, err)
		for i := 0; i < 2; i++ {
			cell := c.Pack().Cell(i)
			if v := cell.TerminalVoltage(rep.PerCellA[i]); v > 4.20+0.02 {
				t.Fatalf("cell %d terminal voltage %g exceeded the 4.20 V CV ceiling", i, v)
			}
		}
	}
}

func TestGaugeReportedState(t *testing.T) {
	a := battery.MustNew(battery.MustByName("QuickCharge-2000"))
	b := battery.MustNew(battery.MustByName("Standard-2000"))
	cfg := firmware.DefaultConfig(battery.MustNewPack(a, b))
	cfg.ReportGaugeState = true
	cfg.Gauge.GainError = 0.01 // force a visible estimation error
	c, err := firmware.NewController(cfg)
	mustNoErr(t, err)
	for k := 0; k < 3600; k++ {
		_, err := c.Step(2.0, 0, 1)
		mustNoErr(t, err)
	}
	sts, err := c.QueryBatteryStatus()
	mustNoErr(t, err)
	for i, s := range sts {
		truth := c.Pack().Cell(i).SoC()
		if s.SoC == truth {
			t.Errorf("cell %d reported exactly true SoC; gauge estimate expected", i)
		}
		if diff := math.Abs(s.SoC - truth); diff > 0.05 {
			t.Errorf("cell %d gauge estimate off by %g", i, diff)
		}
	}
	// Policies built on the estimates still drive the firmware fine.
	if err := c.Discharge([]float64{0.6, 0.4}); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Step(2.0, 0, 1)
	mustNoErr(t, err)
	if math.Abs(rep.DeliveredW-2.0) > 0.05 {
		t.Errorf("delivered %g W under gauge reporting", rep.DeliveredW)
	}
}

func TestSetChargeProfileRejectsWrongVoltageScale(t *testing.T) {
	// A 96S traction pack must refuse the single-cell 4.2 V profile —
	// the regression that silently disabled EV regen charging.
	p := battery.MustByName("EnergyMax-4000")
	p.Name = "traction"
	p.OCV = p.OCV.Scale(96)
	cfg := firmware.DefaultConfig(battery.MustNewPack(battery.MustNew(p)))
	cfg.Profiles = append(cfg.Profiles,
		circuit.ChargeProfile{Name: "traction", CRate: 0.06, TrickleCRate: 0.03, ThresholdSoC: 0.9, CVVoltage: 4.2 * 96})
	c, err := firmware.NewController(cfg)
	mustNoErr(t, err)
	if err := c.SetChargeProfile(0, "standard"); err == nil {
		t.Error("single-cell CV profile accepted for a 350 V pack")
	}
	if err := c.SetChargeProfile(0, "traction"); err != nil {
		t.Errorf("pack-scale profile rejected: %v", err)
	}
}

func TestProfileTableLastNameWinsAndIsCopied(t *testing.T) {
	// Two entries share a name: the last one, whose CV ceiling sits
	// below any cell's 20%-charge potential, must be the one resolved.
	cfg := firmware.DefaultConfig(battery.MustNewPack(battery.MustNew(battery.MustByName("Standard-2000"))))
	cfg.Profiles = append(cfg.Profiles,
		circuit.ChargeProfile{Name: "dup", CRate: 0.5, TrickleCRate: 0.1, ThresholdSoC: 0.8, CVVoltage: 4.2},
		circuit.ChargeProfile{Name: "dup", CRate: 0.5, TrickleCRate: 0.1, ThresholdSoC: 0.8, CVVoltage: 1.0})
	c, err := firmware.NewController(cfg)
	mustNoErr(t, err)
	if err := c.SetChargeProfile(0, "dup"); err == nil {
		t.Error("first of two same-named profiles won")
	}
	// Editing the caller's table afterwards must not reach the firmware.
	cfg.Profiles[len(cfg.Profiles)-1].CVVoltage = 4.2
	if err := c.SetChargeProfile(0, "dup"); err == nil {
		t.Error("controller shares the caller's profile table")
	}
}
