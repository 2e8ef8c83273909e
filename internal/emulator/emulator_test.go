package emulator

import (
	"fmt"
	"math"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/workload"
)

func twoCellStack(t *testing.T, soc float64, opts core.Options) *Stack {
	t.Helper()
	st, err := NewStack(soc, opts,
		battery.MustByName("QuickCharge-2000"),
		battery.MustByName("Standard-2000"))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNewStackValidation(t *testing.T) {
	if _, err := NewStack(1, core.Options{}); err == nil {
		t.Error("empty stack accepted")
	}
	bad := battery.MustByName("Watch-200")
	bad.CapacityAh = -1
	if _, err := NewStack(1, core.Options{}, bad); err == nil {
		t.Error("invalid cell accepted")
	}
}

func TestRunValidation(t *testing.T) {
	st := twoCellStack(t, 1, core.Options{})
	tr := workload.Constant("c", 1, 10, 1)
	if _, err := Run(Config{Trace: tr}); err == nil {
		t.Error("missing controller accepted")
	}
	if _, err := Run(Config{Controller: st.Controller}); err == nil {
		t.Error("missing trace accepted")
	}
	badTr := &workload.Trace{Name: "", DT: 1, Load: []float64{1}}
	if _, err := Run(Config{Controller: st.Controller, Trace: badTr}); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestRunConstantDischarge(t *testing.T) {
	st := twoCellStack(t, 1, core.Options{})
	tr := workload.Constant("2w", 2, 600, 1)
	res, err := Run(Config{Controller: st.Controller, Runtime: st.Runtime, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	// 2 W for 600 s = 1200 J delivered.
	if math.Abs(res.DeliveredJ-1200) > 30 {
		t.Errorf("delivered %g J, want ~1200", res.DeliveredJ)
	}
	if res.CircuitLossJ <= 0 || res.BatteryLossJ <= 0 {
		t.Errorf("losses = %g, %g; want positive", res.CircuitLossJ, res.BatteryLossJ)
	}
	if res.BrownoutSteps != 0 || res.DrainedAtS >= 0 {
		t.Errorf("unexpected drain: %+v", res)
	}
	if res.ElapsedS != 600 {
		t.Errorf("elapsed = %g", res.ElapsedS)
	}
	// SoC fell on both cells.
	for i := 0; i < 2; i++ {
		if soc := st.Pack.Cell(i).SoC(); soc >= 1 {
			t.Errorf("cell %d did not discharge", i)
		}
	}
}

func TestRunRecordsSeries(t *testing.T) {
	st := twoCellStack(t, 1, core.Options{})
	tr := workload.Constant("2w", 2, 100, 1)
	res, err := Run(Config{Controller: st.Controller, Runtime: st.Runtime, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series
	if s.Len() != 100 {
		t.Fatalf("series lengths: delivered=%d soc=%d", len(s.DeliveredW), len(s.SoC[0]))
	}
	if s.SoC[0][0] < s.SoC[0][99] {
		t.Error("SoC series not decreasing under discharge")
	}
}

func TestRunRecordThrottling(t *testing.T) {
	// A 100-step trace records at steps 0, every, 2*every, ...: the
	// series must hold exactly that many samples, and the columns must
	// have been preallocated to exactly that size (len == cap).
	for _, tc := range []struct {
		everyS float64
		want   int
	}{{1, 100}, {10, 10}, {60, 2}, {7, 15}} {
		st := twoCellStack(t, 1, core.Options{})
		tr := workload.Constant("2w", 2, 100, 1)
		res, err := Run(Config{
			Controller: st.Controller, Runtime: st.Runtime, Trace: tr,
			RecordEveryS: tc.everyS,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := res.Series
		cols := map[string][]float64{
			"DeliveredW": s.DeliveredW, "CircuitLossW": s.CircuitLossW, "BatteryLossW": s.BatteryLossW,
		}
		for i, soc := range s.SoC {
			cols[fmt.Sprintf("SoC[%d]", i)] = soc
		}
		for name, col := range cols {
			if len(col) != tc.want || cap(col) != tc.want {
				t.Errorf("every %gs: %s has len %d cap %d, want %d", tc.everyS, name, len(col), cap(col), tc.want)
			}
		}
	}
}

func TestRunStopsWhenDrained(t *testing.T) {
	st := twoCellStack(t, 0.05, core.Options{})
	tr := workload.Constant("heavy", 6, 7200, 1)
	res, err := Run(Config{
		Controller: st.Controller, Runtime: st.Runtime, Trace: tr,
		StopWhenDrained: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DrainedAtS < 0 {
		t.Fatal("pack never drained at 6 W from 5% SoC")
	}
	if res.ElapsedS >= tr.Duration() {
		t.Error("run did not stop early")
	}
	// Brownout fires when the pack cannot meet the load, which can be
	// slightly before cells reach exactly zero: both must at least be
	// nearly empty.
	for i := 0; i < 2; i++ {
		if soc := st.Pack.Cell(i).SoC(); soc > 0.05 {
			t.Errorf("cell %d SoC %g at brownout, want nearly empty", i, soc)
		}
	}
}

func TestRunChargingTrace(t *testing.T) {
	st := twoCellStack(t, 0.2, core.Options{})
	tr := workload.ChargeSession("plug", 15, 1, 1800, 1)
	res, err := Run(Config{Controller: st.Controller, Runtime: st.Runtime, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChargedJ <= 0 {
		t.Fatal("no charge absorbed while plugged in")
	}
	for i := 0; i < 2; i++ {
		if st.Pack.Cell(i).SoC() <= 0.2 {
			t.Errorf("cell %d did not charge", i)
		}
	}
	if math.Abs(res.DeliveredJ-1*1800) > 1 {
		t.Errorf("delivered %g J, want the 1 W load throughout", res.DeliveredJ)
	}
}

func TestDirectiveFnInvoked(t *testing.T) {
	st := twoCellStack(t, 1, core.Options{})
	tr := workload.Constant("2w", 2, 300, 1)
	var calls int
	_, err := Run(Config{
		Controller: st.Controller, Runtime: st.Runtime, Trace: tr,
		PolicyEveryS: 60,
		DirectiveFn: func(tS float64, rt *core.Runtime) {
			calls++
			rt.SetDirectives(1, 1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Errorf("directive hook ran %d times, want 5 (every 60 s of 300 s)", calls)
	}
	chg, dis := st.Runtime.Directives()
	if chg != 1 || dis != 1 {
		t.Error("directive hook changes not applied")
	}
}

func TestFirmwareOnlyRun(t *testing.T) {
	// Runtime nil: firmware keeps its default uniform ratios.
	st := twoCellStack(t, 1, core.Options{})
	tr := workload.Constant("2w", 2, 120, 1)
	res, err := Run(Config{Controller: st.Controller, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DeliveredJ-240) > 10 {
		t.Errorf("firmware-only run delivered %g J", res.DeliveredJ)
	}
	// Uniform ratios on equal cells: SoCs track each other.
	if math.Abs(st.Pack.Cell(0).SoC()-st.Pack.Cell(1).SoC()) > 0.01 {
		t.Error("uniform ratios produced uneven drain on equal cells")
	}
}

func TestEnergyConservationAcrossRun(t *testing.T) {
	st := twoCellStack(t, 1, core.Options{})
	tr := workload.Constant("3w", 3, 1200, 1)
	chemBefore := st.Pack.Cell(0).EnergyRemainingJ() + st.Pack.Cell(1).EnergyRemainingJ()
	res, err := Run(Config{Controller: st.Controller, Runtime: st.Runtime, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	chemAfter := st.Pack.Cell(0).EnergyRemainingJ() + st.Pack.Cell(1).EnergyRemainingJ()
	spent := chemBefore - chemAfter
	accounted := res.DeliveredJ + res.CircuitLossJ + res.BatteryLossJ
	if math.Abs(spent-accounted) > 0.02*spent {
		t.Errorf("energy leak: cells lost %g J, accounted %g J", spent, accounted)
	}
}

func TestFinalMetricsPopulated(t *testing.T) {
	st := twoCellStack(t, 0.9, core.Options{})
	tr := workload.Constant("1w", 1, 60, 1)
	res, err := Run(Config{Controller: st.Controller, Runtime: st.Runtime, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalMetrics.RBLJoules <= 0 || res.FinalMetrics.CCB < 1 {
		t.Errorf("final metrics empty: %+v", res.FinalMetrics)
	}
}

// TestPolicyChangesOutcome is the package-level integration check that
// policy actually matters: preserving the efficient cell (Reserve) and
// loss-minimizing (RBL) allocations drain the two heterogeneous cells
// differently.
func TestPolicyChangesOutcome(t *testing.T) {
	mkStack := func(p core.DischargePolicy) *Stack {
		st, err := NewStack(1, core.Options{DischargePolicy: p},
			battery.MustByName("Watch-200"),
			battery.MustByName("BendStrap-200"))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	tr := workload.Constant("watchload", 0.15, 3600, 1)

	rblStack := mkStack(core.RBLDischarge{})
	if _, err := Run(Config{Controller: rblStack.Controller, Runtime: rblStack.Runtime, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	resStack := mkStack(core.Reserve{ReserveIdx: 0})
	if _, err := Run(Config{Controller: resStack.Controller, Runtime: resStack.Runtime, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	// Under Reserve, the rigid Li-ion (cell 0) must end with more
	// charge than it does under RBL.
	if resStack.Pack.Cell(0).SoC() <= rblStack.Pack.Cell(0).SoC() {
		t.Errorf("reserve policy did not preserve the Li-ion cell: reserve %.3f vs rbl %.3f",
			resStack.Pack.Cell(0).SoC(), rblStack.Pack.Cell(0).SoC())
	}
}
