package battery

import (
	"math"
	"testing"
)

// thermalParams returns a 2 Ah cell with an aggressive thermal model
// for fast-converging tests.
func thermalParams() Params {
	p := makeParams("thermal-2000", ChemType2, 2.0, 0.06)
	p.ThermalMassJPerK = 30 // small mass: fast thermal response
	p.ThermalResKPerW = 20  // 1 W of heat -> +20 K at equilibrium
	p.TempCoeffRPerK = -0.008
	p.AgingTempThresholdC = 45
	p.AgingTempFactorPerK = 0.02
	p.MaxTempC = 60
	return p
}

func TestThermalValidation(t *testing.T) {
	p := thermalParams()
	p.ThermalResKPerW = 0
	if err := p.Validate(); err == nil {
		t.Error("thermal mass without thermal resistance accepted")
	}
	p = thermalParams()
	p.ThermalMassJPerK = -1
	if err := p.Validate(); err == nil {
		t.Error("negative thermal mass accepted")
	}
	p = thermalParams()
	p.MaxTempC = 20
	if err := p.Validate(); err == nil {
		t.Error("MaxTempC below ambient accepted")
	}
}

func TestCellStartsAtAmbient(t *testing.T) {
	c := MustNew(thermalParams())
	if c.Temperature() != AmbientC {
		t.Errorf("fresh cell at %g C", c.Temperature())
	}
}

func TestDischargeHeatsCell(t *testing.T) {
	c := MustNew(thermalParams())
	c.SetSoC(0.8)
	for k := 0; k < 600; k++ {
		c.StepCurrent(3.0, 1) // 1.5C: ~0.8 W of heat
	}
	if c.Temperature() <= AmbientC+5 {
		t.Errorf("cell at %g C after sustained 1.5C discharge, want clearly above ambient", c.Temperature())
	}
}

func TestTemperatureEquilibrium(t *testing.T) {
	// Equilibrium rise = heat * Rth. At 3 A with R ~ 0.06*shape +
	// RC-pair dissipation; measure the realized heat and compare.
	c := MustNew(thermalParams())
	c.SetSoC(0.9)
	var lastHeat float64
	for k := 0; k < 1800; k++ {
		res := c.StepCurrent(2.0, 1)
		lastHeat = res.HeatW
	}
	want := AmbientC + lastHeat*20
	if math.Abs(c.Temperature()-want) > 1.5 {
		t.Errorf("equilibrium %g C, want ~%g (heat %g W x 20 K/W)", c.Temperature(), want, lastHeat)
	}
}

func TestCellCoolsAtRest(t *testing.T) {
	c := MustNew(thermalParams())
	c.SetSoC(0.8)
	for k := 0; k < 600; k++ {
		c.StepCurrent(3.0, 1)
	}
	hot := c.Temperature()
	for k := 0; k < 3600; k++ {
		c.StepCurrent(0, 1)
	}
	if c.Temperature() >= hot-3 {
		t.Errorf("cell did not cool: %g -> %g C", hot, c.Temperature())
	}
	if math.Abs(c.Temperature()-AmbientC) > 1 {
		t.Errorf("rested cell at %g C, want ambient", c.Temperature())
	}
}

func TestWarmCellHasLowerResistance(t *testing.T) {
	c := MustNew(thermalParams())
	c.SetSoC(0.7)
	cold := c.DCIR()
	for k := 0; k < 900; k++ {
		c.StepCurrent(3.0, 1)
	}
	c.SetSoC(0.7) // same SoC for comparison
	if c.DCIR() >= cold {
		t.Errorf("warm DCIR %g not below cold %g", c.DCIR(), cold)
	}
}

func TestSetAmbientShiftsEquilibrium(t *testing.T) {
	c := MustNew(thermalParams())
	c.SetAmbient(35)
	for k := 0; k < 3600; k++ {
		c.StepCurrent(0, 1)
	}
	if math.Abs(c.Temperature()-35) > 0.5 {
		t.Errorf("cell at %g C with 35 C ambient", c.Temperature())
	}
}

func TestThermalDerateNearLimit(t *testing.T) {
	p := thermalParams()
	p.ThermalResKPerW = 60 // heat up fast and far
	c := MustNew(p)
	c.SetSoC(0.9)
	full := c.maxDischargeCurrent()
	for k := 0; k < 7200 && c.Temperature() < p.MaxTempC-1; k++ {
		c.StepCurrent(3.0, 1)
		if c.SoC() < 0.3 {
			c.SetSoC(0.9) // keep the load running to thermal equilibrium
		}
	}
	if c.Temperature() < p.MaxTempC-5 {
		t.Fatalf("cell only reached %g C; cannot exercise derating", c.Temperature())
	}
	if c.maxDischargeCurrent() >= full*0.9 {
		t.Errorf("no derating near the limit: %g vs cold %g A", c.maxDischargeCurrent(), full)
	}
}

func TestThermalThrottleCapsRealizedCurrent(t *testing.T) {
	p := thermalParams()
	p.ThermalResKPerW = 80
	c := MustNew(p)
	c.SetSoC(0.95)
	var minCurrent = math.Inf(1)
	for k := 0; k < 7200; k++ {
		res := c.StepCurrent(4.0, 1)
		if c.Temperature() > p.MaxTempC-2 && res.Current < minCurrent {
			minCurrent = res.Current
		}
		if c.SoC() < 0.3 {
			c.SetSoC(0.95)
		}
	}
	if math.IsInf(minCurrent, 1) {
		t.Skip("cell never approached the thermal limit")
	}
	if minCurrent >= 4.0 {
		t.Errorf("current %g A not throttled near the thermal limit", minCurrent)
	}
}

func TestHotCyclingAgesFaster(t *testing.T) {
	mk := func(ambient float64) *Cell {
		c := MustNew(thermalParams())
		c.SetAmbient(ambient)
		return c
	}
	cool := mk(25)
	hot := mk(55) // average cycle temperature well above the 45 C knee
	for _, c := range []*Cell{cool, hot} {
		cycleCell(c, 1.0, 15)
	}
	if hot.CapacityFraction() >= cool.CapacityFraction() {
		t.Errorf("hot cycling (%.5f) should fade more than cool (%.5f)",
			hot.CapacityFraction(), cool.CapacityFraction())
	}
}

func TestThermalModelDisabledByDefaultParams(t *testing.T) {
	p := makeParams("nothermal", ChemType2, 2.0, 0.06) // no withVolume
	c := MustNew(p)
	c.SetSoC(0.8)
	for k := 0; k < 600; k++ {
		c.StepCurrent(3.0, 1)
	}
	if c.Temperature() != AmbientC {
		t.Errorf("disabled thermal model still heated to %g C", c.Temperature())
	}
	if c.maxDischargeCurrent() != p.MaxDischargeC*c.Capacity()/3600 {
		t.Error("disabled thermal model derated current")
	}
}

func TestLibraryThermalParamsSane(t *testing.T) {
	for _, p := range Library() {
		if p.ThermalMassJPerK <= 0 || p.ThermalResKPerW <= 0 {
			t.Errorf("%s: thermal model not configured", p.Name)
		}
		if p.MaxTempC <= AmbientC {
			t.Errorf("%s: bad MaxTempC %g", p.Name, p.MaxTempC)
		}
		// Bigger cells must shed heat better (lower thermal resistance).
		if p.MassKg > 0.05 && p.ThermalResKPerW > 15 {
			t.Errorf("%s: %g K/W too high for a %g kg cell", p.Name, p.ThermalResKPerW, p.MassKg)
		}
	}
}

func TestSnapshotIncludesTemperature(t *testing.T) {
	c := MustNew(thermalParams())
	c.SetSoC(0.8)
	for k := 0; k < 600; k++ {
		c.StepCurrent(3.0, 1)
	}
	s := c.Snapshot()
	if s.TemperatureC != c.Temperature() {
		t.Errorf("snapshot temp %g != cell %g", s.TemperatureC, c.Temperature())
	}
}

func TestSelfDischargeAtRest(t *testing.T) {
	p := testParams()
	p.SelfDischargePerMonth = 0.02
	c := MustNew(p)
	// A month at rest in hour steps: ~2% of charge leaks away.
	for k := 0; k < 30*24; k++ {
		c.StepCurrent(0, 3600)
	}
	if got := 1 - c.SoC(); got < 0.015 || got > 0.025 {
		t.Errorf("month at rest leaked %.4f of charge, want ~0.02", got)
	}
}

func TestSelfDischargeValidation(t *testing.T) {
	p := testParams()
	p.SelfDischargePerMonth = -0.1
	if err := p.Validate(); err == nil {
		t.Error("negative self-discharge accepted")
	}
	p.SelfDischargePerMonth = 1
	if err := p.Validate(); err == nil {
		t.Error("100% self-discharge accepted")
	}
}

func TestSelfDischargeCanBeDisabled(t *testing.T) {
	p := testParams()
	p.SelfDischargePerMonth = 0
	c := MustNew(p)
	for k := 0; k < 24; k++ {
		c.StepCurrent(0, 3600)
	}
	if c.SoC() != 1 {
		t.Errorf("no-leak cell lost charge: %g", c.SoC())
	}
}

func TestSelfDischargeOnlyAtRest(t *testing.T) {
	// Under meaningful current the leak is not modeled: a cell charged
	// to full must actually report Full (regression: with the leak
	// applied during charging, "full" was unreachable and charge loops
	// spun forever).
	c := MustNew(testParams())
	c.SetSoC(0.99)
	for k := 0; k < 1000 && !c.Full(); k++ {
		c.StepCurrent(-0.5, 60)
	}
	if !c.Full() {
		t.Fatal("cell with self-discharge never reached full while charging")
	}
}

func TestLibraryCellsHaveSelfDischarge(t *testing.T) {
	for _, p := range Library() {
		if p.SelfDischargePerMonth <= 0 || p.SelfDischargePerMonth > 0.05 {
			t.Errorf("%s: implausible self-discharge %g", p.Name, p.SelfDischargePerMonth)
		}
	}
}
