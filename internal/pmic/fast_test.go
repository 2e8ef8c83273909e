package pmic_test

import (
	"testing"

	"sdb/internal/battery"
	"sdb/internal/battery/batch"
	"sdb/internal/firmware"
	"sdb/internal/obs"
)

// TestFastSegmentMatchesStep is the in-package half of the fast-path
// bit-identity contract: a controller stepped through
// BeginFast/FastStep/EndFast segments must track a twin stepped
// through the scalar Step call exactly — same per-step outputs, same
// cell state, same status reports, same step counters — through idle,
// light, uneven, overload (brownout + redistribution), and watchdog
// phases, at a segment size that leaves a partial tail.
func TestFastSegmentMatchesStep(t *testing.T) {
	ref := newTestController(t, 0.95)
	fast := newTestController(t, 0.95)
	eng := batch.New()
	if e, _ := fast.FastLanes(); e != nil {
		t.Fatal("FastLanes non-nil before AttachFast")
	}
	if err := fast.AttachFast(eng); err != nil {
		t.Fatal(err)
	}
	if e, _ := fast.FastLanes(); e != eng {
		t.Fatal("FastLanes does not report the attached engine")
	}

	both := func(f func(c *firmware.Controller) error) {
		t.Helper()
		if err := f(ref); err != nil {
			t.Fatal(err)
		}
		if err := f(fast); err != nil {
			t.Fatal(err)
		}
	}
	both(func(c *firmware.Controller) error { return c.Discharge([]float64{0.7, 0.3}) })
	both(func(c *firmware.Controller) error { c.SetWatchdog(45); return nil })

	const dt, steps, segment = 1.0, 70, 16 // 70 % 16 != 0: partial tail
	for _, loadW := range []float64{0, 3, 18, 500} {
		var refOuts []firmware.FastStepOut
		for k := 0; k < steps; k++ {
			rep, err := ref.Step(loadW, 0, dt)
			if err != nil {
				t.Fatal(err)
			}
			refOuts = append(refOuts, firmware.FastStepOut{
				DeliveredW:   rep.DeliveredW,
				CircuitLossW: rep.CircuitLossW,
				BatteryLossW: rep.BatteryLossW,
				Brownout:     rep.Faults&firmware.FaultBrownout != 0,
			})
		}
		for done := 0; done < steps; {
			if !fast.BeginFast() {
				t.Fatal("BeginFast refused on a clean controller")
			}
			n := segment
			if steps-done < n {
				n = steps - done
			}
			for k := 0; k < n; k++ {
				if got := fast.FastStep(loadW, dt); got != refOuts[done+k] {
					fast.EndFast(k)
					t.Fatalf("load %v step %d: fast %+v != scalar %+v",
						loadW, done+k, got, refOuts[done+k])
				}
			}
			fast.EndFast(n)
			done += n
		}

		for i := range ref.Pack().Cells() {
			a, b := ref.Pack().Cell(i).ExportState(), fast.Pack().Cell(i).ExportState()
			if a != b {
				t.Fatalf("load %v: cell %d state diverged:\nscalar %+v\nfast   %+v", loadW, i, a, b)
			}
		}
		sa, err := ref.QueryBatteryStatus()
		if err != nil {
			t.Fatal(err)
		}
		sb, err := fast.QueryBatteryStatus()
		if err != nil {
			t.Fatal(err)
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("load %v: status %d diverged:\nscalar %+v\nfast   %+v", loadW, i, sa[i], sb[i])
			}
		}
	}
	if a, b := ref.StepCount(), fast.StepCount(); a != b {
		t.Fatalf("step counters diverged: scalar %d fast %d", a, b)
	}
}

// TestFastPathRefusals pins the gate conditions: an instrumented
// controller may not attach (skipped metric calls would be observable),
// and a transfer in flight makes BeginFast fall back to scalar.
func TestFastPathRefusals(t *testing.T) {
	a := battery.MustNew(battery.MustByName("QuickCharge-2000"))
	b := battery.MustNew(battery.MustByName("Standard-2000"))
	cfg := firmware.DefaultConfig(battery.MustNewPack(a, b))
	cfg.Obs = obs.NewRegistry()
	instrumented, err := firmware.NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := instrumented.AttachFast(batch.New()); err == nil {
		t.Fatal("AttachFast accepted an instrumented controller")
	}

	c := newTestController(t, 0.9)
	if c.BeginFast() {
		c.EndFast(0)
		t.Fatal("BeginFast succeeded with no engine attached")
	}
	if err := c.AttachFast(batch.New()); err != nil {
		t.Fatal(err)
	}
	if err := c.ChargeOneFromAnother(0, 1, 1, 30); err != nil {
		t.Fatal(err)
	}
	if c.BeginFast() {
		c.EndFast(0)
		t.Fatal("BeginFast succeeded with a transfer in flight")
	}
}
