package pmic_test

// Tests for the firmware-side safety net: the command watchdog that
// reverts to safe uniform ratios when the runtime goes silent, and
// open-circuit cell isolation.

import (
	"math"
	"testing"

	"sdb/internal/bus"
	"sdb/internal/firmware"
	"sdb/internal/pmic"
)

// TestWatchdogRevertsToUniform: skewed ratios plus runtime silence must
// revert the registers to the uniform safe split after WatchdogS.
func TestWatchdogRevertsToUniform(t *testing.T) {
	ctrl := newTestController(t, 0.9)
	ctrl.SetWatchdog(30)

	if err := ctrl.Discharge([]float64{0.95, 0.05}); err != nil {
		t.Fatal(err)
	}
	// 29 s of silence: not yet.
	for i := 0; i < 29; i++ {
		if _, err := ctrl.Step(1.0, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if dis, _ := ctrl.Ratios(); dis[0] != 0.95 {
		t.Fatalf("watchdog fired early: %v", dis)
	}
	// One more second crosses the threshold.
	if _, err := ctrl.Step(1.0, 0, 1); err != nil {
		t.Fatal(err)
	}
	dis, chg := ctrl.Ratios()
	if dis[0] != 0.5 || dis[1] != 0.5 || chg[0] != 0.5 {
		t.Fatalf("watchdog did not revert to uniform: %v / %v", dis, chg)
	}
	if ctrl.WatchdogFires() != 1 {
		t.Errorf("WatchdogFires = %d, want 1", ctrl.WatchdogFires())
	}

	// A fresh command rearms the countdown and latches again.
	if err := ctrl.Discharge([]float64{0.8, 0.2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 29; i++ {
		if _, err := ctrl.Step(1.0, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if dis, _ := ctrl.Ratios(); dis[0] != 0.8 {
		t.Fatalf("command did not rearm the watchdog: %v", dis)
	}
}

// TestWatchdogDisabledByDefault: with no WatchdogS configured, silence
// never touches latched ratios — the historical behavior experiments
// rely on for byte-identical outputs.
func TestWatchdogDisabledByDefault(t *testing.T) {
	ctrl := newTestController(t, 0.9)
	if err := ctrl.Discharge([]float64{0.9, 0.1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := ctrl.Step(1.0, 0, 10); err != nil {
			t.Fatal(err)
		}
	}
	if dis, _ := ctrl.Ratios(); dis[0] != 0.9 {
		t.Fatalf("disabled watchdog still fired: %v", dis)
	}
	if ctrl.WatchdogFires() != 0 {
		t.Errorf("WatchdogFires = %d on a disabled watchdog", ctrl.WatchdogFires())
	}
}

// TestOpenCellIsolated: an open-circuit cell must carry no discharge
// current, receive no charge, report Faulted with zero capability, and
// the survivors must pick up the load.
func TestOpenCellIsolated(t *testing.T) {
	ctrl := newTestController(t, 0.8)
	if err := ctrl.SetCellOpen(0, true); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.SetCellOpen(5, true); err == nil {
		t.Error("out-of-range cell index accepted")
	}
	if !ctrl.CellOpen(0) || ctrl.CellOpen(1) {
		t.Fatalf("open flags wrong: %v %v", ctrl.CellOpen(0), ctrl.CellOpen(1))
	}

	sts, err := ctrl.QueryBatteryStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !sts[0].Faulted || sts[0].MaxDischargeW != 0 || sts[0].MaxChargeW != 0 {
		t.Fatalf("faulted status not reported: %+v", sts[0])
	}
	if sts[1].Faulted {
		t.Fatalf("healthy cell reported faulted: %+v", sts[1])
	}

	// Discharge: all realized power must come from cell 1.
	rep, err := ctrl.Step(1.5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerCellW[0] != 0 {
		t.Errorf("open cell delivered %g W", rep.PerCellW[0])
	}
	if math.Abs(rep.DeliveredW-1.5) > 0.1 {
		t.Errorf("survivor did not pick up the load: delivered %g W", rep.DeliveredW)
	}

	// Charge: the open cell must absorb nothing.
	rep, err = ctrl.Step(0.5, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerCellW[0] != 0 {
		t.Errorf("open cell absorbed %g W while charging", rep.PerCellW[0])
	}
	if rep.ChargedW <= 0 {
		t.Errorf("survivor absorbed nothing: %g W", rep.ChargedW)
	}

	// Transfers touching the open cell abort.
	if err := ctrl.ChargeOneFromAnother(0, 1, 1, 60); err != nil {
		t.Fatal(err)
	}
	rep, err = ctrl.Step(0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults&firmware.FaultTransferAborted == 0 {
		t.Error("transfer from an open cell did not abort")
	}

	// Clearing the fault restores the cell.
	if err := ctrl.SetCellOpen(0, false); err != nil {
		t.Fatal(err)
	}
	sts, err = ctrl.QueryBatteryStatus()
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].Faulted || sts[0].MaxDischargeW == 0 {
		t.Fatalf("cleared fault still reported: %+v", sts[0])
	}
}

// TestFaultedStatusOverTheWire: the Faulted flag must round-trip
// through the protocol encoding.
func TestFaultedStatusOverTheWire(t *testing.T) {
	ctrl := newTestController(t, 0.8)
	if err := ctrl.SetCellOpen(1, true); err != nil {
		t.Fatal(err)
	}
	sts, err := ctrl.QueryBatteryStatus()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sts {
		var w bus.Writer
		pmic.EncodeStatus(&w, s)
		got := pmic.DecodeStatus(bus.NewReader(w.Bytes()))
		if got.Faulted != s.Faulted || got.Bendable != s.Bendable {
			t.Errorf("cell %d flags lost in transit: %+v vs %+v", s.Index, got, s)
		}
	}
}
