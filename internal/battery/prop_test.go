package battery

// Property-based tests: for randomized cells and step sequences, the
// Thevenin model must keep its physical invariants — state of charge
// bounded, capacity never above design, losses monotone, and energy
// conserved across discharge and charge.

import (
	"math"
	"math/rand"
	"testing"
)

// randCell builds a library cell with a random initial state of charge.
func randCell(t *testing.T, rng *rand.Rand) *Cell {
	t.Helper()
	lib := Library()
	p := lib[rng.Intn(len(lib))]
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	c.SetSoC(0.05 + 0.9*rng.Float64())
	return c
}

// rcStoredJ is the energy parked in the cell's RC pair, which a
// balance over a finite window must credit.
func rcStoredJ(c *Cell) float64 {
	v := c.RCVoltage()
	return 0.5 * c.Params().PlateC * v * v
}

// TestPropInvariantsUnderRandomSteps drives random current and power
// steps of both signs and checks the state invariants after every one.
func TestPropInvariantsUnderRandomSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		c := randCell(t, rng)
		capA := c.DesignCapacity() / 3600 // 1C in amps
		prevLoss := c.TotalLoss()
		for step := 0; step < 200; step++ {
			dt := 0.5 + rng.Float64()*120
			var res StepResult
			if rng.Intn(2) == 0 {
				i := (rng.Float64()*6 - 3) * capA // up to 3C either way
				res = c.StepCurrent(i, dt)
			} else {
				p := (rng.Float64()*2 - 1) * c.MaxDischargePower() * 1.5
				res = c.StepPower(p, dt)
			}
			if soc := c.SoC(); soc < 0 || soc > 1 || math.IsNaN(soc) {
				t.Fatalf("trial %d step %d: SoC = %g", trial, step, soc)
			}
			if cp := c.Capacity(); cp <= 0 || cp > c.DesignCapacity()*(1+1e-12) {
				t.Fatalf("trial %d step %d: capacity %g outside (0, %g]",
					trial, step, cp, c.DesignCapacity())
			}
			if l := c.TotalLoss(); l < prevLoss || math.IsNaN(l) || math.IsInf(l, 0) {
				t.Fatalf("trial %d step %d: loss went %g -> %g", trial, step, prevLoss, l)
			} else {
				prevLoss = l
			}
			if e := c.EnergyRemainingJ(); e < 0 || math.IsNaN(e) {
				t.Fatalf("trial %d step %d: energy remaining %g", trial, step, e)
			}
			if math.IsNaN(res.TerminalV) || math.IsNaN(res.PowerW) || res.HeatW < 0 {
				t.Fatalf("trial %d step %d: bad step result %+v", trial, step, res)
			}
		}
	}
}

// TestPropDischargeConservation checks that over a discharge-only
// window, the chemical energy drop equals delivered terminal energy
// plus internal heat plus what is left stored in the RC pair.
func TestPropDischargeConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		c := randCell(t, rng)
		c.SetSoC(0.85 + 0.1*rng.Float64())
		capA := c.DesignCapacity() / 3600
		before := c.EnergyRemainingJ()
		var delivered, heat float64
		for step := 0; step < 400 && !c.Empty(); step++ {
			dt := 1 + rng.Float64()*15
			i := rng.Float64() * 1.5 * capA
			res := c.StepCurrent(i, dt)
			delivered += res.PowerW * dt
			heat += res.HeatW * dt
		}
		after := c.EnergyRemainingJ()
		drop := before - after
		got := delivered + heat + rcStoredJ(c)
		tol := 0.03*drop + 0.5
		if math.Abs(drop-got) > tol {
			t.Errorf("trial %d (%s): energy drop %g J but delivered %g + heat %g + rc %g = %g (err %g > %g)",
				trial, c.Name(), drop, delivered, heat, rcStoredJ(c), got, math.Abs(drop-got), tol)
		}
		if delivered <= 0 {
			t.Errorf("trial %d: no energy delivered", trial)
		}
	}
}

// TestPropChargeConservation is the mirror balance: terminal energy
// pushed in equals the chemical energy gain plus heat plus RC storage.
// The charge window stays under the 80% cycle threshold so capacity
// fade cannot move the goalposts mid-balance.
func TestPropChargeConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		c := randCell(t, rng)
		c.SetSoC(0.15 + 0.05*rng.Float64())
		capA := c.DesignCapacity() / 3600
		before := c.EnergyRemainingJ()
		var pushed, heat float64
		var moved float64
		for step := 0; step < 400; step++ {
			if moved > 0.7*c.Capacity() || c.Full() {
				break
			}
			dt := 1 + rng.Float64()*10
			i := -rng.Float64() * capA
			res := c.StepCurrent(i, dt)
			pushed += -res.PowerW * dt
			heat += res.HeatW * dt
			moved += -res.ChargeMoved
		}
		after := c.EnergyRemainingJ()
		gain := after - before
		got := gain + heat + rcStoredJ(c)
		tol := 0.03*pushed + 0.5
		if math.Abs(pushed-got) > tol {
			t.Errorf("trial %d (%s): pushed %g J but gain %g + heat %g + rc %g = %g (err %g > %g)",
				trial, c.Name(), pushed, gain, heat, rcStoredJ(c), got, math.Abs(pushed-got), tol)
		}
		if gain <= 0 {
			t.Errorf("trial %d: charging did not raise stored energy", trial)
		}
	}
}

// TestPropEnergyLowerBound: EnergyRemainingLowerBoundJ is a bound on
// EnergyRemainingJ, which the firmware relies on to skip the 50-point
// integral. Every library cell, over a state-of-charge sweep, on its
// dense curves and on reference curves over the same knots, fresh and
// after an abrupt capacity fade.
func TestPropEnergyLowerBound(t *testing.T) {
	for _, dense := range Library() {
		ref := dense
		ref.OCV = MustCurve(dense.OCV.Points())
		ref.DCIR = MustCurve(dense.DCIR.Points())
		for _, p := range []Params{dense, ref} {
			for _, retain := range []float64{1, 0.6, 0} {
				c := MustNew(p)
				c.InjectCapacityFade(retain)
				for k := 0; k <= 200; k++ {
					c.SetSoC(float64(k) / 200)
					lb, e := c.EnergyRemainingLowerBoundJ(), c.EnergyRemainingJ()
					if lb > e || lb < 0 {
						t.Fatalf("%s dense=%v retain=%v soc=%v: lower bound %v J, energy %v J",
							p.Name, p.OCV.IsDense(), retain, c.SoC(), lb, e)
					}
				}
			}
		}
	}
}
