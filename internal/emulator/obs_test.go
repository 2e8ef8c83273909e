package emulator

// Observability property tests: the measurement plane must be a pure
// read-side. Attaching a live registry to every layer of the stack
// cannot change a single recorded sample or joule versus the
// uninstrumented run (byte-identical-off ⇔ byte-identical-on), and
// the numbers it collects must agree with the run's own result —
// in particular the first-law energy residual must be ~0.

import (
	"math"
	"reflect"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/firmware"
	"sdb/internal/obs"
	"sdb/internal/workload"
)

// obsStack builds the full stack — firmware controller, runtime,
// emulator config — with every layer bound to reg (nil = off).
func obsStack(t *testing.T, trace *workload.Trace, reg *obs.Registry) (Config, *core.Runtime) {
	t.Helper()
	a := battery.MustNew(battery.MustByName("QuickCharge-2000"))
	b := battery.MustNew(battery.MustByName("Standard-2000"))
	pack := battery.MustNewPack(a, b)
	pcfg := firmware.DefaultConfig(pack)
	pcfg.Obs = reg
	ctrl, err := firmware.NewController(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(ctrl, core.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Controller:   ctrl,
		Runtime:      rt,
		Trace:        trace,
		PolicyEveryS: 60,
		RecordEveryS: 60,
		Obs:          reg,
	}, rt
}

// TestObsOnByteIdentical runs a full emulated day twice — once
// uninstrumented, once with metrics, tracing, and the policy audit all
// live — and requires bit-for-bit identical physics. This is the
// headline guarantee that lets the observability plane ship enabled in
// experiments without invalidating any published table.
func TestObsOnByteIdentical(t *testing.T) {
	dayS := 24 * 3600.0
	if testing.Short() {
		dayS = 2 * 3600.0
	}
	trace := workload.Square("obs-day", 0.15, 0.9, 3600, 0.35, dayS, 1.0)

	run := func(reg *obs.Registry) *Result {
		cfg, _ := obsStack(t, trace, reg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	off := run(nil)
	reg := obs.NewRegistry()
	on := run(reg)

	if off.DeliveredJ != on.DeliveredJ ||
		off.CircuitLossJ != on.CircuitLossJ ||
		off.BatteryLossJ != on.BatteryLossJ ||
		off.ChargedJ != on.ChargedJ {
		t.Errorf("energy totals diverge with obs on: off %g/%g/%g/%g, on %g/%g/%g/%g",
			off.DeliveredJ, off.CircuitLossJ, off.BatteryLossJ, off.ChargedJ,
			on.DeliveredJ, on.CircuitLossJ, on.BatteryLossJ, on.ChargedJ)
	}
	if off.BrownoutSteps != on.BrownoutSteps || off.DrainedAtS != on.DrainedAtS {
		t.Errorf("brownout accounting diverges: off %d/%g, on %d/%g",
			off.BrownoutSteps, off.DrainedAtS, on.BrownoutSteps, on.DrainedAtS)
	}
	if !reflect.DeepEqual(off.Series, on.Series) {
		t.Error("recorded series diverge between obs-off and obs-on runs")
	}
	if !reflect.DeepEqual(off.FinalMetrics, on.FinalMetrics) {
		t.Errorf("final metrics diverge: %+v vs %+v", off.FinalMetrics, on.FinalMetrics)
	}

	// The instrumented run actually measured things, and its numbers
	// agree with the emulator's own result.
	if got := reg.Counter("sdb_emulator_steps_total").Value(); got != int64(on.Steps) {
		t.Errorf("step counter %d, emulator reports %d steps", got, on.Steps)
	}
	if got := reg.Counter("sdb_pmic_steps_total").Value(); got != int64(on.Steps) {
		t.Errorf("firmware step counter %d, emulator reports %d steps", got, on.Steps)
	}
	if reg.Counter("sdb_core_policy_decisions_total").Value() == 0 {
		t.Error("no policy decisions recorded over a full day")
	}
	if reg.Counter("sdb_emulator_policy_ticks_total").Value() == 0 {
		t.Error("no policy ticks recorded over a full day")
	}
	if cnt := reg.Histogram("sdb_emulator_step_seconds", nil).Count(); cnt != int64(on.Steps) {
		t.Errorf("step-timing histogram holds %d observations, want %d", cnt, on.Steps)
	}

	// First-law audit: the residual gauge closes the energy books to
	// within the cell model's quadrature tolerance (the same 3% + 1 J
	// bound the conservation property test uses).
	residual := reg.Gauge("sdb_emulator_energy_residual_joules").Value()
	throughput := on.DeliveredJ + on.CircuitLossJ + on.BatteryLossJ
	if tol := 0.03*throughput + 1; math.Abs(residual) > tol {
		t.Errorf("energy residual %g J exceeds tolerance %g J (throughput %g J)",
			residual, tol, throughput)
	}

	// The audit log captured structured policy decisions.
	recs := reg.Audit().Records()
	if len(recs) == 0 {
		t.Fatal("policy audit log empty after a full day")
	}
	last := recs[len(recs)-1]
	if len(last.Dis) != 2 || len(last.Chg) != 2 {
		t.Errorf("audit record ratio widths %d/%d, want 2/2", len(last.Dis), len(last.Chg))
	}
	if last.MeanSoC < 0 || last.MeanSoC > 1 {
		t.Errorf("audit MeanSoC %g out of [0,1]", last.MeanSoC)
	}

	// The run-span trace event closed out with the result's totals.
	events := reg.Tracer().Events()
	if len(events) == 0 {
		t.Fatal("trace ring empty after a full day")
	}
	span := events[len(events)-1]
	if span.Kind != "run.span" || span.V2 != float64(on.Steps) {
		t.Errorf("final trace event %+v, want run.span with V2=%d", span, on.Steps)
	}
}

// TestObsRepeatedRunsDeterministic guards against the measurement
// plane smuggling state between runs: two identical instrumented runs
// on fresh registries must produce identical physics and identical
// counter values.
func TestObsRepeatedRunsDeterministic(t *testing.T) {
	trace := workload.Square("obs-rep", 0.2, 0.8, 1800, 0.4, 2*3600.0, 1.0)
	run := func() (*Result, *obs.Registry) {
		reg := obs.NewRegistry()
		cfg, _ := obsStack(t, trace, reg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, reg
	}
	r1, g1 := run()
	r2, g2 := run()
	if !reflect.DeepEqual(r1.Series, r2.Series) {
		t.Error("series diverge between identical instrumented runs")
	}
	for _, name := range []string{
		"sdb_emulator_steps_total",
		"sdb_emulator_policy_ticks_total",
		"sdb_pmic_steps_total",
		"sdb_pmic_discharge_cmds_total",
		"sdb_core_policy_decisions_total",
	} {
		if a, b := g1.Counter(name).Value(), g2.Counter(name).Value(); a != b {
			t.Errorf("%s: %d vs %d across identical runs", name, a, b)
		}
	}
}
