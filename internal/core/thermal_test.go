package core

import (
	"math"
	"testing"

	"sdb/internal/pmic"
)

func mkThermalStatus(tempC float64) pmic.BatteryStatus {
	s := mkStatus(0.8, 3.8, 0.2, 0, 20, 5)
	s.TemperatureC = tempC
	return s
}

func TestThermalGuardValidation(t *testing.T) {
	sts := []pmic.BatteryStatus{mkThermalStatus(25), mkThermalStatus(25)}
	if _, err := (ThermalGuard{}).DischargeRatios(nil, sts, 1); err == nil {
		t.Error("nil inner policy accepted")
	}
	g := ThermalGuard{Inner: RBLDischarge{}, SoftLimitC: 50, HardLimitC: 40}
	if _, err := g.DischargeRatios(nil, sts, 1); err == nil {
		t.Error("hard <= soft accepted")
	}
}

func TestThermalGuardPassthroughWhenCool(t *testing.T) {
	sts := []pmic.BatteryStatus{mkThermalStatus(25), mkThermalStatus(30)}
	g := ThermalGuard{Inner: RBLDischarge{}, SoftLimitC: 45, HardLimitC: 58}
	guarded, err := g.DischargeRatios(nil, sts, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RBLDischarge{}.DischargeRatios(nil, sts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if math.Abs(guarded[i]-plain[i]) > 1e-12 {
			t.Fatalf("cool pack altered: %v vs %v", guarded, plain)
		}
	}
}

func TestThermalGuardDeweightsHotCell(t *testing.T) {
	sts := []pmic.BatteryStatus{mkThermalStatus(52), mkThermalStatus(25)}
	g := ThermalGuard{Inner: RBLDischarge{}, SoftLimitC: 45, HardLimitC: 58}
	ratios, err := g.DischargeRatios(nil, sts, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkRatios(t, ratios)
	if ratios[0] >= ratios[1] {
		t.Errorf("hot cell not de-weighted: %v", ratios)
	}
}

func TestThermalGuardZeroesCellAtHardLimit(t *testing.T) {
	sts := []pmic.BatteryStatus{mkThermalStatus(60), mkThermalStatus(25)}
	g := ThermalGuard{Inner: RBLDischarge{}, SoftLimitC: 45, HardLimitC: 58}
	ratios, err := g.DischargeRatios(nil, sts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ratios[0] > 1e-9 {
		t.Errorf("cell above hard limit still loaded: %v", ratios)
	}
}

func TestThermalGuardAllHotFallsBack(t *testing.T) {
	sts := []pmic.BatteryStatus{mkThermalStatus(60), mkThermalStatus(61)}
	g := ThermalGuard{Inner: RBLDischarge{}, SoftLimitC: 45, HardLimitC: 58}
	ratios, err := g.DischargeRatios(nil, sts, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkRatios(t, ratios) // inner allocation survives; firmware protects
}

func TestThermalGuardName(t *testing.T) {
	g := ThermalGuard{Inner: RBLDischarge{}, SoftLimitC: 45, HardLimitC: 58}
	if g.Name() != "thermal-guard(rbl-discharge)" {
		t.Errorf("name = %q", g.Name())
	}
}

func TestThermalGuardFactorShape(t *testing.T) {
	g := ThermalGuard{SoftLimitC: 40, HardLimitC: 50}
	cases := []struct{ temp, want float64 }{
		{20, 1}, {40, 1}, {45, 0.5}, {50, 0}, {70, 0},
	}
	for _, c := range cases {
		if got := g.factor(c.temp); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("factor(%g) = %g, want %g", c.temp, got, c.want)
		}
	}
}
