package pmic_test

import (
	"math"
	"math/rand"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/firmware"
)

// TestStepEnergyConservationRandomSequence drives the controller with
// a random mix of loads, supplies, ratio changes, profile changes, and
// transfers, then audits the cells' books: the chemical energy the
// pack lost must equal the net energy that left the cell terminals
// plus the cells' internal dissipation, within integration tolerance.
// (The firmware cannot create or destroy energy, no matter what
// command sequence it sees.)
func TestStepEnergyConservationRandomSequence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		a := battery.MustNew(battery.MustByName("QuickCharge-2000"))
		b := battery.MustNew(battery.MustByName("Standard-3000"))
		a.SetSoC(0.6)
		b.SetSoC(0.6)
		ctrl, err := firmware.NewController(firmware.DefaultConfig(battery.MustNewPack(a, b)))
		if err != nil {
			t.Fatal(err)
		}

		chemBefore := a.EnergyRemainingJ() + b.EnergyRemainingJ()
		var terminalNetJ, batteryLossJ float64
		profiles := []string{"gentle", "standard", "fast"}
		const dt = 1.0
		for k := 0; k < 2000; k++ {
			switch rng.Intn(10) {
			case 0:
				r := 0.1 + 0.8*rng.Float64()
				if err := ctrl.Discharge([]float64{r, 1 - r}); err != nil {
					t.Fatal(err)
				}
			case 1:
				r := 0.1 + 0.8*rng.Float64()
				if err := ctrl.Charge([]float64{r, 1 - r}); err != nil {
					t.Fatal(err)
				}
			case 2:
				if err := ctrl.SetChargeProfile(rng.Intn(2), profiles[rng.Intn(3)]); err != nil {
					t.Fatal(err)
				}
			case 3:
				if !ctrl.TransferActive() {
					from := rng.Intn(2)
					_ = ctrl.ChargeOneFromAnother(from, 1-from, 1.5, 30)
				}
			}
			loadW := 4 * rng.Float64()
			var extW float64
			if rng.Intn(3) == 0 {
				extW = 12 * rng.Float64()
			}
			rep, err := ctrl.Step(loadW, extW, dt)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range rep.PerCellW {
				terminalNetJ += w * dt
			}
			batteryLossJ += rep.BatteryLossW * dt
		}
		chemAfter := a.EnergyRemainingJ() + b.EnergyRemainingJ()
		spent := chemBefore - chemAfter
		accounted := terminalNetJ + batteryLossJ
		if math.IsNaN(spent) || math.IsNaN(accounted) {
			t.Fatal("energy accounting went NaN")
		}
		// Tolerance covers RC-pair stored energy, aging-induced
		// capacity adjustments, and integration error.
		scale := math.Max(1, math.Max(math.Abs(spent), math.Abs(accounted)))
		if diff := math.Abs(spent - accounted); diff > 0.05*scale {
			t.Errorf("seed %d: energy books off by %.1f J (chemical %.1f, terminals+heat %.1f)",
				seed, diff, spent, accounted)
		}
	}
}

// TestStepNeverProducesNegativeDelivery fuzzes step inputs: whatever
// the commanded state, the firmware never reports negative delivered
// power or negative losses.
func TestStepNeverProducesNegativeDelivery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := newTestController(t, 0.7)
	for k := 0; k < 3000; k++ {
		loadW := 8 * rng.Float64()
		var extW float64
		if rng.Intn(4) == 0 {
			extW = 20 * rng.Float64()
		}
		rep, err := c.Step(loadW, extW, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if rep.DeliveredW < 0 {
			t.Fatalf("step %d: negative delivered power %g", k, rep.DeliveredW)
		}
		if rep.CircuitLossW < -1e-9 || rep.BatteryLossW < -1e-9 {
			t.Fatalf("step %d: negative loss (%g, %g)", k, rep.CircuitLossW, rep.BatteryLossW)
		}
	}
}
