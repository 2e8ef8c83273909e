package sim

import (
	"bytes"
	"encoding/gob"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/obs"
	"sdb/internal/predictor"
	"sdb/internal/workload"
)

// runFunc is emulator.Run's shape: the reference or emulate.
type runFunc func(emulator.Config) (*emulator.Result, error)

// driverCase replays one driver's run sequence on a fresh stack with
// the given run function and returns every Result in order, plus the
// stack for its final state. play must be deterministic, so two calls
// start from identical stacks.
type driverCase struct {
	name string
	// scalar marks a case EnableBatch must refuse.
	scalar bool
	play   func(t *testing.T, run runFunc) ([]*emulator.Result, *emulator.Stack)
}

func newStack(t *testing.T, soc float64, opts core.Options, cells ...string) *emulator.Stack {
	t.Helper()
	params := make([]battery.Params, len(cells))
	for i, n := range cells {
		params[i] = battery.MustByName(n)
	}
	st, err := emulator.NewStack(soc, opts, params...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustRun(t *testing.T, run runFunc, cfg emulator.Config) *emulator.Result {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// driverCases mirror the drivers' emulate call sites: ext-year's
// reused controller across days, nights and charge-profile switches;
// ablation-directive's pre-aged directive cycles; ablation-split and
// ext-quad's single runs; a Figure 13 day and the learned day's
// DirectiveFn, both stopping when drained; and one instrumented run.
func driverCases() []driverCase {
	return []driverCase{
		{name: "ext-year-14-days", play: func(t *testing.T, run runFunc) ([]*emulator.Result, *emulator.Stack) {
			st := newStack(t, 1.0, core.Options{}, "QuickCharge-2000", "Standard-3000")
			lightDay := workload.Square("weekday", 0.25, 1.2, 1800, 0.3, 16*3600, 60)
			heavyDay := workload.Square("weekend", 0.4, 2.4, 1800, 0.3, 16*3600, 60)
			night := workload.ChargeSession("night", 15, 0.05, 8*3600, 60)
			var out []*emulator.Result
			profiles := map[string]bool{}
			for d := 0; d < 14; d++ {
				day := lightDay
				if d%7 >= 5 {
					day = heavyDay
				}
				out = append(out, mustRun(t, run, emulator.Config{
					Controller: st.Controller, Runtime: st.Runtime, Trace: day, PolicyEveryS: 600,
				}))
				m, err := st.Runtime.Metrics()
				if err != nil {
					t.Fatal(err)
				}
				// The schedule-aware regime: weekends end low and
				// charge fast, weekdays gentle.
				profile := "gentle"
				if m.MeanSoC < 0.35 {
					profile = "fast"
				}
				profiles[profile] = true
				for i := 0; i < st.Pack.N(); i++ {
					if err := st.Controller.SetChargeProfile(i, profile); err != nil {
						t.Fatal(err)
					}
				}
				out = append(out, mustRun(t, run, emulator.Config{
					Controller: st.Controller, Runtime: st.Runtime, Trace: night, PolicyEveryS: 600,
				}))
			}
			if len(profiles) != 2 {
				t.Fatalf("14 days chose charge profiles %v, want both", profiles)
			}
			return out, st
		}},
		{name: "ablation-directive", play: func(t *testing.T, run runFunc) ([]*emulator.Result, *emulator.Stack) {
			st := newStack(t, 1.0, core.Options{ChargingDirective: 0.25, DischargingDirective: 0.25},
				"PowerPlus-2500", "Standard-3000")
			preAge(st.Pack.Cell(0), 40)
			tr := workload.Square("daily", 0.5, 5.0, 600, 0.4, 3*3600, 5)
			charge := workload.ChargeSession("refill", 30, 0.2, 2*3600, 5)
			var out []*emulator.Result
			for cycle := 0; cycle < 3; cycle++ {
				out = append(out,
					mustRun(t, run, emulator.Config{Controller: st.Controller, Runtime: st.Runtime, Trace: tr}),
					mustRun(t, run, emulator.Config{Controller: st.Controller, Runtime: st.Runtime, Trace: charge}))
			}
			return out, st
		}},
		{name: "ablation-split", play: func(t *testing.T, run runFunc) ([]*emulator.Result, *emulator.Stack) {
			st := newStack(t, 1.0, core.Options{DischargePolicy: core.RBLDischarge{DerivativeAware: true}},
				"PowerTool-1500", "Standard-2000")
			tr := workload.Square("mixed", 0.5, 6.0, 600, 0.3, 2*3600, 1)
			return []*emulator.Result{mustRun(t, run, emulator.Config{
				Controller: st.Controller, Runtime: st.Runtime, Trace: tr,
			})}, st
		}},
		{name: "ext-quad", play: func(t *testing.T, run runFunc) ([]*emulator.Result, *emulator.Stack) {
			st := newStack(t, 0.9, core.Options{DischargePolicy: core.Proportional{}},
				"QuickCharge-2000", "EnergyMax-4000", "PowerTool-1500", "Standard-2000")
			tr := workload.Square("tablet", 1.0, 9.0, 600, 0.35, 2*3600, 1)
			return []*emulator.Result{mustRun(t, run, emulator.Config{
				Controller: st.Controller, Runtime: st.Runtime, Trace: tr,
			})}, st
		}},
		{name: "fig13-day", play: func(t *testing.T, run runFunc) ([]*emulator.Result, *emulator.Stack) {
			st := newStack(t, 1.0, core.Options{DischargePolicy: core.RBLDischarge{DerivativeAware: true}},
				"Watch-200", "BendStrap-200")
			return []*emulator.Result{mustRun(t, run, emulator.Config{
				Controller: st.Controller, Runtime: st.Runtime, Trace: fig13Trace(true),
				PolicyEveryS: 300, StopWhenDrained: true,
			})}, st
		}},
		{name: "learned-day", play: func(t *testing.T, run runFunc) ([]*emulator.Result, *emulator.Stack) {
			prof, err := predictor.New(0.3, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			tr := fig13Trace(true)
			for i := 0; i < 7; i++ {
				if err := prof.ObserveDay(tr); err != nil {
					t.Fatal(err)
				}
			}
			st := newStack(t, 1.0, core.Options{DischargePolicy: core.RBLDischarge{DerivativeAware: true}},
				"Watch-200", "BendStrap-200")
			return []*emulator.Result{mustRun(t, run, emulator.Config{
				Controller: st.Controller, Runtime: st.Runtime, Trace: tr,
				PolicyEveryS: 300, StopWhenDrained: true,
				DirectiveFn: func(tS float64, rt *core.Runtime) {
					m, err := rt.Metrics()
					if err != nil {
						return
					}
					adv := prof.Advise(tS/3600, m.MeanSoC, 4, 0.5)
					if adv.ReserveForWindow {
						_ = rt.SetDischargePolicy(core.Reserve{ReserveIdx: 0, HighPowerW: adv.HighPowerW})
					} else {
						_ = rt.SetDischargePolicy(core.RBLDischarge{DerivativeAware: true})
					}
					rt.SetDirectives(adv.ChargingDirective, adv.DischargingDirective)
				},
			})}, st
		}},
		{name: "instrumented", scalar: true, play: func(t *testing.T, run runFunc) ([]*emulator.Result, *emulator.Stack) {
			st := newStack(t, 1.0, core.Options{}, "Watch-200", "BendStrap-200")
			reg := obs.NewRegistry()
			res := mustRun(t, run, emulator.Config{
				Controller: st.Controller, Runtime: st.Runtime, Trace: fig13Trace(true),
				PolicyEveryS: 300, Obs: reg,
			})
			// Only the scalar Step counts steps into the registry.
			if got := reg.Counter("sdb_emulator_steps_total").Value(); got != int64(res.Steps) {
				t.Fatalf("registry counted %d steps of %d: the run left the scalar path", got, res.Steps)
			}
			return []*emulator.Result{res}, st
		}},
	}
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDriversMatchScalarRun holds emulate to emulator.Run, the scalar
// reference, on every driver shape: the same gob bytes for every
// Result and for the final controller and runtime state. Eligible runs
// must really have stepped on the batch kernel, and the instrumented
// one must not.
func TestDriversMatchScalarRun(t *testing.T) {
	for _, tc := range driverCases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want, ref := tc.play(t, emulator.Run)
			got, fast := tc.play(t, emulate)
			if eng, _ := fast.Controller.FastLanes(); (eng != nil) == tc.scalar {
				t.Fatalf("batch engine attached = %v, want %v", eng != nil, !tc.scalar)
			}
			if len(got) != len(want) {
				t.Fatalf("%d results, reference %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(gobBytes(t, got[i]), gobBytes(t, want[i])) {
					t.Fatalf("run %d: Result differs from emulator.Run (%d steps vs %d, delivered %.17g vs %.17g J)",
						i, got[i].Steps, want[i].Steps, got[i].DeliveredJ, want[i].DeliveredJ)
				}
			}
			if !bytes.Equal(gobBytes(t, fast.Controller.ExportState()), gobBytes(t, ref.Controller.ExportState())) {
				t.Error("final controller state differs from emulator.Run")
			}
			if !bytes.Equal(gobBytes(t, fast.Runtime.ExportState()), gobBytes(t, ref.Runtime.ExportState())) {
				t.Error("final runtime state differs from emulator.Run")
			}
		})
	}
}
