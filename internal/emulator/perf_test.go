package emulator

import (
	"testing"

	"sdb/internal/battery"
	"sdb/internal/battery/batch"
	"sdb/internal/core"
	"sdb/internal/workload"
)

// constantTrace builds a flat load trace of the given length.
func constantTrace(name string, loadW, dt float64, steps int) *workload.Trace {
	tr := &workload.Trace{Name: name, DT: dt, Load: make([]float64, steps)}
	for i := range tr.Load {
		tr.Load[i] = loadW
	}
	return tr
}

// TestPolicyTicksDoNotDrift pins the integer policy-tick schedule: at
// dt=0.1 over an hour, the runtime must be consulted exactly once per
// 60 s window, each time at a step index that is an exact multiple of
// the window. The old float-time accumulator (t >= nextPolicy with
// t = k*dt) fired one step late whenever k*dt rounded below the target
// and the error compounded over the run.
func TestPolicyTicksDoNotDrift(t *testing.T) {
	st := twoCellStack(t, 0.9, core.Options{})
	const (
		dt     = 0.1
		policy = 60.0
		hourS  = 3600
	)
	steps := int(hourS / dt)
	var tickSteps []int
	cfg := Config{
		Controller:   st.Controller,
		Runtime:      st.Runtime,
		Trace:        constantTrace("tick-drift", 1.0, dt, steps),
		PolicyEveryS: policy,
		RecordEveryS: 600,
		DirectiveFn: func(tS float64, rt *core.Runtime) {
			// tS = k*dt by construction; recover k without trusting
			// float division to land exactly.
			k := int(tS/dt + 0.5)
			tickSteps = append(tickSteps, k)
		},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	wantTicks := hourS / int(policy)
	if len(tickSteps) != wantTicks {
		t.Fatalf("got %d policy ticks over %d s, want %d", len(tickSteps), hourS, wantTicks)
	}
	per := int(policy / dt)
	for i, k := range tickSteps {
		if k != i*per {
			t.Fatalf("tick %d fired at step %d, want %d (drift)", i, k, i*per)
		}
	}
}

// TestRunAllocationsDoNotScaleWithSteps verifies the Series buffers are
// preallocated from the trace length: a 10x longer run must cost the
// same number of heap allocations (bigger, but not more), so
// steady-state stepping itself is allocation-free.
func TestRunAllocationsDoNotScaleWithSteps(t *testing.T) {
	run := func(steps int) func() {
		return func() {
			st, err := NewStack(0.9, core.Options{},
				battery.MustByName("Slim-5000"),
				battery.MustByName("EnergyMax-8000"))
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Controller: st.Controller, // firmware-only: no policy allocations
				Trace:      constantTrace("alloc-scale", 1.5, 1, steps),
			}
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	short := testing.AllocsPerRun(5, run(500))
	long := testing.AllocsPerRun(5, run(5000))
	// Identical wiring, 10x the steps: any per-step allocation would
	// show up as ~4500 extra objects. Allow a handful of slack for
	// runtime noise.
	if long > short+10 {
		t.Errorf("allocations scale with steps: %g for 500 steps vs %g for 5000", short, long)
	}
}

// stackBytesBudget bounds the heap bytes one NewStack of the fleet's
// QuickCharge-2000 + Standard-2000 pack may allocate. The stack
// allocates 3,330 B (3,344 B under -race). A per-controller
// charge-profile map adds 480 B and a per-controller dense charger
// efficiency table 1,280 B (5,090 B with both), so either coming back
// fails the budget. Byte counts are deterministic, not timings.
const stackBytesBudget = 3584

// TestNewStackBytes pins the per-device cost of a stack to
// stackBytesBudget.
func TestNewStackBytes(t *testing.T) {
	qc, std := battery.MustByName("QuickCharge-2000"), battery.MustByName("Standard-2000")
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewStack(0.5, core.Options{}, qc, std); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := r.AllocedBytesPerOp(); got > stackBytesBudget {
		t.Errorf("NewStack allocates %d B per stack, budget %d B", got, stackBytesBudget)
	}
}

// BenchmarkEmulatorStep measures the full per-step cost of the
// emulation loop (trace sampling, firmware step, series recording) on a
// two-cell pack, firmware-only.
func BenchmarkEmulatorStep(b *testing.B) {
	st, err := NewStack(1, core.Options{},
		battery.MustByName("Slim-5000"),
		battery.MustByName("EnergyMax-8000"))
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 3600 // steps per Run call
	tr := constantTrace("bench-step", 1.5, 1, chunk)
	cells := st.Pack.Cells()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		for _, c := range cells {
			c.SetSoC(1)
		}
		if _, err := Run(Config{Controller: st.Controller, Trace: tr, RecordEveryS: 60}); err != nil {
			b.Fatal(err)
		}
	}
}

// Layer benchmarks of the batched stepping path. They time the bodies
// of the sdbperf layer ledger's pmic.faststep and emulator.stepbatch
// rows on the same device (ledgerStack), so `go test -bench -count N`
// gives those rows a spread; ns/step is the ledger's figure.
const (
	benchSegment = 64   // steps per fast segment and per StepBatch call
	benchRefill  = 1024 // steps between charge refills, so a pack never drains
)

// ledgerStack is the fleet's device hardware: a QuickCharge-2000 +
// Standard-2000 pack at 80% behind default firmware, with its policy
// runtime.
func ledgerStack(tb testing.TB) *Stack {
	tb.Helper()
	st, err := NewStack(0.8, core.Options{},
		battery.MustByName("QuickCharge-2000"),
		battery.MustByName("Standard-2000"))
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// fastSegment runs one benchSegment-step fast segment at 2 W on
// battery power.
func fastSegment(tb testing.TB, st *Stack) {
	if !st.Controller.BeginFast() {
		tb.Fatal("controller refused a fast segment")
	}
	for k := 0; k < benchSegment; k++ {
		st.Controller.FastStep(2, 1)
	}
	st.Controller.EndFast(benchSegment)
}

// BenchmarkFastStep times fast segments of the firmware alone:
// BeginFast, 64 FastSteps, EndFast.
func BenchmarkFastStep(b *testing.B) {
	st := ledgerStack(b)
	if err := st.Controller.AttachFast(batch.New()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(benchRefill/benchSegment) == 0 {
			for _, c := range st.Pack.Cells() {
				c.SetSoC(0.8)
			}
		}
		fastSegment(b, st)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchSegment), "ns/step")
}

// batchMachine is a firmware-only ledger device on a constant 2 W,
// 4-hour trace, stepping through the batched fast path.
func batchMachine(tb testing.TB, tr *workload.Trace) *Machine {
	tb.Helper()
	m, err := NewMachine(Config{Controller: ledgerStack(tb).Controller, Trace: tr, RecordEveryS: 60})
	if err != nil {
		tb.Fatal(err)
	}
	if !m.EnableBatch(batch.New()) {
		tb.Fatal("machine refused the batch engine")
	}
	return m
}

// BenchmarkMachineStepBatch times Machine.StepBatch(64) on the fast
// path, as a fleet shard steps a device. A machine whose trace ends is
// replaced with the timer stopped.
func BenchmarkMachineStepBatch(b *testing.B) {
	tr := workload.Constant("ledger", 2, 4*3600, 1)
	m := batchMachine(b, tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Done() {
			b.StopTimer()
			m = batchMachine(b, tr)
			b.StartTimer()
		}
		if _, err := m.StepBatch(benchSegment); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchSegment), "ns/step")
}

// TestFastSegmentNoAllocs pins the zero-allocation contract of the
// batched stepping path: a 64-step fast segment of the firmware, and a
// 64-step StepBatch of a machine on the fast path (recording included),
// touch no heap.
func TestFastSegmentNoAllocs(t *testing.T) {
	st := ledgerStack(t)
	if err := st.Controller.AttachFast(batch.New()); err != nil {
		t.Fatal(err)
	}
	fastSegment(t, st) // warm up
	if avg := testing.AllocsPerRun(50, func() { fastSegment(t, st) }); avg != 0 {
		t.Errorf("a %d-step fast segment allocates %.1f objects, want 0", benchSegment, avg)
	}

	m := batchMachine(t, workload.Constant("allocs", 2, 4*3600, 1))
	step := func() {
		if n, err := m.StepBatch(benchSegment); err != nil || n != benchSegment {
			t.Fatalf("StepBatch ran %d steps, err %v", n, err)
		}
	}
	// Warm up past the first recorded samples, whose series appends
	// grow their backing arrays.
	step()
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Errorf("StepBatch(%d) on the fast path allocates %.1f objects, want 0", benchSegment, avg)
	}
}
