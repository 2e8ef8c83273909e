package pmic_test

import (
	"testing"

	"sdb/internal/battery"
	"sdb/internal/firmware"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
)

// benchController wires a two-cell controller the way the emulator
// experiments do.
func benchController(tb testing.TB) *firmware.Controller {
	tb.Helper()
	return benchControllerObs(tb, nil)
}

// benchControllerObs is benchController with a metrics registry
// attached (nil = uninstrumented).
func benchControllerObs(tb testing.TB, reg *obs.Registry) *firmware.Controller {
	tb.Helper()
	cells := []*battery.Cell{
		battery.MustNew(battery.MustByName("Standard-2000")),
		battery.MustNew(battery.MustByName("EnergyMax-4000")),
	}
	pack, err := battery.NewPack(cells...)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := firmware.DefaultConfig(pack)
	cfg.Obs = reg
	ctrl, err := firmware.NewController(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return ctrl
}

// TestStepSteadyStateNoAllocs pins the zero-allocation contract of the
// enforcement loop: after construction, steady-state discharging and
// charging steps must not touch the heap (the per-step scratch lives in
// the controller, and StepReport hands out views of it).
func TestStepSteadyStateNoAllocs(t *testing.T) {
	t.Run("discharge", func(t *testing.T) {
		ctrl := benchController(t)
		step := func() {
			if _, err := ctrl.Step(3.0, 0, 1.0); err != nil {
				t.Fatal(err)
			}
		}
		step() // warm up
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
			t.Errorf("discharge Step allocates %g objects/op, want 0", allocs)
		}
	})
	t.Run("charge", func(t *testing.T) {
		ctrl := benchController(t)
		for _, c := range ctrl.Pack().Cells() {
			c.SetSoC(0.5)
		}
		step := func() {
			if _, err := ctrl.Step(1.0, 12.0, 1.0); err != nil {
				t.Fatal(err)
			}
		}
		step()
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
			t.Errorf("charge Step allocates %g objects/op, want 0", allocs)
		}
	})
	t.Run("idle", func(t *testing.T) {
		ctrl := benchController(t)
		step := func() {
			if _, err := ctrl.Step(0, 0, 1.0); err != nil {
				t.Fatal(err)
			}
		}
		step()
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
			t.Errorf("idle Step allocates %g objects/op, want 0", allocs)
		}
	})
}

// TestStepNoAllocsWithObs pins the zero-alloc-ON contract: a live
// metrics registry must not put allocations back into the enforcement
// loop — counters and energy accumulators are atomics, trace events
// fire only on rare edges, and no step-path operation builds strings
// or slices.
func TestStepNoAllocsWithObs(t *testing.T) {
	modes := []struct {
		name        string
		loadW, extW float64
		prep        func(*firmware.Controller)
	}{
		{"discharge", 3.0, 0, nil},
		{"charge", 1.0, 12.0, func(c *firmware.Controller) {
			for _, cell := range c.Pack().Cells() {
				cell.SetSoC(0.5)
			}
		}},
		{"idle", 0, 0, nil},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			ctrl := benchControllerObs(t, reg)
			// Arm the watchdog so its (counter + trace event) path also
			// runs inside the measured window.
			ctrl.SetWatchdog(100)
			if m.prep != nil {
				m.prep(ctrl)
			}
			step := func() {
				if _, err := ctrl.Step(m.loadW, m.extW, 1.0); err != nil {
					t.Fatal(err)
				}
			}
			step() // warm up
			if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
				t.Errorf("%s Step with live registry allocates %g objects/op, want 0", m.name, allocs)
			}
			if reg.Counter("sdb_pmic_steps_total").Value() < 1000 {
				t.Error("registry did not observe the steps (instrumentation detached?)")
			}
			if reg.Counter("sdb_pmic_watchdog_fires_total").Value() == 0 {
				t.Error("armed watchdog never fired during the alloc window")
			}
		})
	}
}

// TestStepReportBuffersReused documents the scratch-buffer ownership:
// consecutive Step calls return views of the same backing arrays, so a
// caller retaining a report across steps must copy the slices.
func TestStepReportBuffersReused(t *testing.T) {
	ctrl := benchController(t)
	r1, err := ctrl.Step(3.0, 0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	first := r1.PerCellW[0]
	r2, err := ctrl.Step(6.0, 0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if &r1.PerCellW[0] != &r2.PerCellW[0] || &r1.PerCellA[0] != &r2.PerCellA[0] {
		t.Error("PerCell buffers are not reused across steps (allocation crept back in)")
	}
	if r1.PerCellW[0] == first && r2.PerCellW[0] != first {
		t.Error("impossible: aliased slices disagree")
	}
}

// BenchmarkControllerStep measures one firmware enforcement step on a
// two-cell pack. The acceptance bar for the allocation-free hot loop is
// 0 allocs/op in steady state.
func BenchmarkControllerStep(b *testing.B) {
	bench := func(loadW, extW float64) func(*testing.B) {
		return func(b *testing.B) {
			ctrl := benchController(b)
			cells := ctrl.Pack().Cells()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Long benchtimes would drain the pack; periodically top
				// the cells back up to keep the step in steady state.
				if i&0xFFFF == 0xFFFF {
					b.StopTimer()
					for _, c := range cells {
						c.SetSoC(0.8)
					}
					b.StartTimer()
				}
				if _, err := ctrl.Step(loadW, extW, 1.0); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("discharge", bench(3.0, 0))
	b.Run("charge", bench(1.0, 12.0))
	b.Run("idle", bench(0, 0))
}

// BenchmarkControllerStepObs is BenchmarkControllerStep with a live
// metrics registry attached: the observability overhead must be a few
// atomic operations, still at 0 allocs/op.
func BenchmarkControllerStepObs(b *testing.B) {
	ctrl := benchControllerObs(b, obs.NewRegistry())
	cells := ctrl.Pack().Cells()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&0xFFFF == 0xFFFF {
			b.StopTimer()
			for _, c := range cells {
				c.SetSoC(0.8)
			}
			b.StartTimer()
		}
		if _, err := ctrl.Step(3.0, 0, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStepNoAllocsWithRecorder: the acceptance guard for recording —
// a controller stepping with a live registry AND an attached recorder
// (sampled on the policy-tick cadence, with an alert rule evaluating
// every sample) still performs zero allocations per hot-loop step.
func TestStepNoAllocsWithRecorder(t *testing.T) {
	reg := obs.NewRegistry()
	ctrl := benchControllerObs(t, reg)
	ctrl.SetWatchdog(100)
	rules, err := ts.ParseRules(
		"alert never rate(sdb_pmic_steps_total) > 1e18\n" +
			"alert quiet abs(sdb_pmic_brownout_steps_total) >= 1e18 for 10m\n")
	if err != nil {
		t.Fatal(err)
	}
	rec := ts.NewRecorder(reg, ts.Config{StepS: 60, Retain: 2048, Rules: rules})
	ctrl.SetRecorder(rec)

	// Emulate the policy-tick structure: one recorder sample per 60
	// simulated steps of 1 s.
	simT := 0.0
	step := func() {
		if _, err := ctrl.Step(2.0, 0, 1.0); err != nil {
			t.Fatal(err)
		}
		simT++
		if int64(simT)%60 == 0 {
			rec.Sample(simT)
		}
	}
	// Warm up past the recorder's first-sight resync (which may
	// allocate) before measuring.
	for i := 0; i < 120; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("Step+Sample allocates %g objects/op in steady state, want 0", allocs)
	}
	if w, ok := rec.Get("sdb_pmic_steps_total"); !ok || len(w.Values) < 2 {
		t.Error("recorder did not record the steps (scrape detached?)")
	}
	if st := rec.AlertStates(); len(st) != 2 || st[0].Fired != 0 {
		t.Errorf("never-firing rules misbehaved: %+v", st)
	}
}
