package emulator

import (
	"reflect"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/battery/batch"
	"sdb/internal/core"
	"sdb/internal/faults"
	"sdb/internal/obs"
	"sdb/internal/workload"
)

// fastCase builds one emulation config; build must be deterministic so
// the scalar and batched machines start from identical stacks.
type fastCase struct {
	name  string
	build func(t *testing.T) Config
}

func fastCases() []fastCase {
	stack := func(t *testing.T, soc float64, watchdogS float64) *Stack {
		t.Helper()
		st, err := NewStack(soc, core.Options{},
			battery.MustByName("QuickCharge-2000"),
			battery.MustByName("Standard-2000"),
			battery.MustByName("EnergyMax-4000"))
		if err != nil {
			t.Fatal(err)
		}
		if watchdogS > 0 {
			st.Controller.SetWatchdog(watchdogS)
		}
		return st
	}
	return []fastCase{
		{"plain-discharge", func(t *testing.T) Config {
			st := stack(t, 0.9, 0)
			return Config{
				Controller: st.Controller,
				Trace:      workload.Square("sq", 1, 6, 120, 0.5, 1800, 1),
			}
		}},
		{"policy-runtime", func(t *testing.T) Config {
			st := stack(t, 0.8, 0)
			return Config{
				Controller:   st.Controller,
				Runtime:      st.Runtime,
				Trace:        workload.Square("sq", 2, 5, 90, 0.3, 1800, 1),
				PolicyEveryS: 60,
			}
		}},
		{"watchdog-fires", func(t *testing.T) Config {
			// No runtime sends commands, so the watchdog reverts the
			// registers repeatedly inside fast segments.
			st := stack(t, 0.7, 45)
			if err := st.Controller.Discharge([]float64{0.6, 0.3, 0.1}); err != nil {
				t.Fatal(err)
			}
			return Config{
				Controller: st.Controller,
				Trace:      workload.Constant("c", 4, 1200, 1),
			}
		}},
		{"faults-mid-run", func(t *testing.T) Config {
			st := stack(t, 0.85, 0)
			return Config{
				Controller: st.Controller,
				Trace:      workload.Constant("c", 3, 900, 1),
				Faults: faults.NewSchedule(
					faults.CellEvent{AtS: 200, Cell: 1, Kind: faults.FaultOpenCircuit},
					faults.CellEvent{AtS: 350, Cell: 0, Kind: faults.FaultCapacityFade, Fraction: 0.6},
					faults.CellEvent{AtS: 500, Cell: 1, Kind: faults.FaultCloseCircuit},
					faults.CellEvent{AtS: 650, Cell: 2, Kind: faults.FaultGaugeDrift, Fraction: 0.05},
				),
			}
		}},
		{"charge-interludes", func(t *testing.T) Config {
			// External power alternates with battery power; both kinds of
			// step batch, across the switches between them.
			st := stack(t, 0.5, 0)
			tr, err := workload.Constant("a", 4, 300, 1).
				Concat(workload.ChargeSession("b", 12, 2, 300, 1))
			if err != nil {
				t.Fatal(err)
			}
			tr, err = tr.Concat(workload.Constant("c", 5, 300, 1))
			if err != nil {
				t.Fatal(err)
			}
			return Config{Controller: st.Controller, Trace: tr}
		}},
		{"plugged-surplus", func(t *testing.T) Config {
			// The supply covers every load sample: every step charges,
			// through the CC phase into the CV taper, with the runtime's
			// blended charge ratios latched at each policy tick.
			st := stack(t, 0.3, 0)
			return Config{
				Controller:   st.Controller,
				Runtime:      st.Runtime,
				Trace:        plugged(workload.Square("sq", 1, 6, 120, 0.5, 2400, 1), 30),
				PolicyEveryS: 60,
			}
		}},
		{"plugged-deficit", func(t *testing.T) Config {
			// A 4 W supply under a 2/8 W square load: the surplus half
			// batches, the deficit half (cells make up the shortfall)
			// stays scalar.
			st := stack(t, 0.6, 0)
			return Config{
				Controller: st.Controller,
				Trace:      plugged(workload.Square("sq", 2, 8, 90, 0.5, 1800, 1), 4),
			}
		}},
		{"drain-to-stop", func(t *testing.T) Config {
			st := stack(t, 0.05, 0)
			return Config{
				Controller:      st.Controller,
				Trace:           workload.Constant("c", 25, 7200, 1),
				StopWhenDrained: true,
			}
		}},
		{"coarse-recording", func(t *testing.T) Config {
			st := stack(t, 0.9, 0)
			return Config{
				Controller:   st.Controller,
				Trace:        workload.Square("sq", 1, 7, 60, 0.4, 1500, 1),
				RecordEveryS: 30,
			}
		}},
	}
}

// plugged returns tr with a constant external supply of supplyW.
func plugged(tr *workload.Trace, supplyW float64) *workload.Trace {
	tr.External = make([]float64, len(tr.Load))
	for i := range tr.External {
		tr.External[i] = supplyW
	}
	return tr
}

// TestFastRunLenAdmitsSurplusOnly: a fast segment runs on battery
// power or on a supply that covers the load, and stops at the first
// step whose supply falls short of it.
func TestFastRunLenAdmitsSurplusOnly(t *testing.T) {
	st, err := NewStack(0.5, core.Options{}, battery.MustByName("Standard-2000"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(Config{
		Controller: st.Controller,
		Trace: &workload.Trace{Name: "mixed", DT: 1,
			Load:     []float64{2, 2, 8, 2, 0, 3},
			External: []float64{5, 2, 4, 9, 0, 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ k, want int }{
		{0, 2}, // surplus, then supply == load, then a deficit
		{2, 0}, // the deficit step itself
		{3, 3}, // surplus, idle, battery power to the end
	} {
		m.k = c.k
		if got := m.fastRunLen(10); got != c.want {
			t.Errorf("fastRunLen at step %d = %d, want %d", c.k, got, c.want)
		}
	}
}

// TestFastPathByteIdentical drives every case through the scalar
// StepBatch and the batched fast path and requires deeply equal
// Results — series, energy totals, drain times, brownout counts, all
// of it. Odd batch sizes make segments straddle policy ticks, fault
// times, and record boundaries.
func TestFastPathByteIdentical(t *testing.T) {
	for _, tc := range fastCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, batchN := range []int{1, 37, 64, 1000} {
				scalar, err := NewMachine(tc.build(t))
				if err != nil {
					t.Fatal(err)
				}
				fast, err := NewMachine(tc.build(t))
				if err != nil {
					t.Fatal(err)
				}
				if !fast.EnableBatch(batch.New()) {
					t.Fatal("EnableBatch refused an uninstrumented machine")
				}
				for !scalar.Done() {
					if _, err := scalar.StepBatch(batchN); err != nil {
						t.Fatal(err)
					}
				}
				for !fast.Done() {
					if _, err := fast.StepBatch(batchN); err != nil {
						t.Fatal(err)
					}
				}
				want, err := scalar.Finish()
				if err != nil {
					t.Fatal(err)
				}
				got, err := fast.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("batch=%d: fast path diverged from scalar", batchN)
				}
			}
		})
	}
}

// TestFastPathGaugeIdentical: the fuel gauges run the real estimator
// inside fast segments; their terminal estimates must match the scalar
// run exactly.
func TestFastPathGaugeIdentical(t *testing.T) {
	build := func(t *testing.T) Config {
		st, err := NewStack(0.8, core.Options{},
			battery.MustByName("QuickCharge-2000"),
			battery.MustByName("Standard-2000"))
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Controller: st.Controller,
			// Rests between pulses let the gauges' OCV-rest correction
			// trigger inside segments.
			Trace: workload.Square("sq", 0, 5, 200, 0.5, 2400, 1),
		}
	}
	scalar, err := NewMachine(build(t))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewMachine(build(t))
	if err != nil {
		t.Fatal(err)
	}
	if !fast.EnableBatch(batch.New()) {
		t.Fatal("EnableBatch refused")
	}
	for !scalar.Done() {
		if _, err := scalar.StepBatch(50); err != nil {
			t.Fatal(err)
		}
	}
	for !fast.Done() {
		if _, err := fast.StepBatch(50); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		w, g := scalar.cfg.Controller.Gauge(i), fast.cfg.Controller.Gauge(i)
		if w.SoC() != g.SoC() || w.EstimatedCapacity() != g.EstimatedCapacity() || w.CycleCount() != g.CycleCount() {
			t.Fatalf("gauge %d diverged: scalar (%v,%v,%d) fast (%v,%v,%d)",
				i, w.SoC(), w.EstimatedCapacity(), w.CycleCount(), g.SoC(), g.EstimatedCapacity(), g.CycleCount())
		}
	}
}

// TestEnableBatchRefusals: instrumented machines and double enables
// stay on the scalar path.
func TestEnableBatchRefusals(t *testing.T) {
	st, err := NewStack(0.8, core.Options{}, battery.MustByName("Standard-2000"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(Config{
		Controller: st.Controller,
		Trace:      workload.Constant("c", 2, 60, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.EnableBatch(batch.New()) {
		t.Fatal("first EnableBatch refused")
	}
	if m.EnableBatch(batch.New()) {
		t.Fatal("second EnableBatch accepted")
	}

	st2, err := NewStack(0.8, core.Options{}, battery.MustByName("Standard-2000"))
	if err != nil {
		t.Fatal(err)
	}
	mi, err := NewMachine(Config{
		Controller: st2.Controller,
		Trace:      workload.Constant("c", 2, 60, 1),
		Obs:        obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if mi.EnableBatch(batch.New()) {
		t.Fatal("EnableBatch accepted an instrumented machine")
	}
}
