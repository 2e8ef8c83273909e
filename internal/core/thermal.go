package core

import (
	"errors"
	"fmt"

	"sdb/internal/pmic"
)

// ThermalGuard wraps a discharge policy and shifts load away from hot
// cells before the firmware's hard thermal protection engages. Table 2
// lists device temperature among the factors that should trigger
// policy changes; this is the OS-side half of that loop — the firmware
// still derates hard near the absolute limit, but the guard reacts
// earlier and proportionally, keeping the pack below the throttle
// point instead of bouncing off it.
type ThermalGuard struct {
	// Inner computes the unguarded ratios.
	Inner DischargePolicy
	// SoftLimitC is where de-weighting begins; by HardLimitC the cell's
	// share reaches zero. Cells report temperature via BatteryStatus.
	SoftLimitC float64
	HardLimitC float64
}

// Name implements DischargePolicy.
func (g ThermalGuard) Name() string {
	if g.Inner == nil {
		return "thermal-guard"
	}
	return "thermal-guard(" + g.Inner.Name() + ")"
}

// DischargeRatios implements DischargePolicy. The inner ratios, the
// scaled copy and the caps sit one after another past dst; the scaled
// copy replaces the inner ratios only when it is used.
func (g ThermalGuard) DischargeRatios(dst []float64, sts []pmic.BatteryStatus, loadW float64) ([]float64, error) {
	if g.Inner == nil {
		return nil, errors.New("core: thermal guard needs an inner policy")
	}
	if g.SoftLimitC <= 0 || g.HardLimitC <= g.SoftLimitC {
		return nil, fmt.Errorf("core: thermal guard needs 0 < soft (%g) < hard (%g)", g.SoftLimitC, g.HardLimitC)
	}
	inner, err := g.Inner.DischargeRatios(dst, sts, loadW)
	if err != nil {
		return nil, err
	}
	n := len(inner) - len(dst)
	out, buf := extend(inner, 2*n)
	ratios, scaled, caps := out[len(dst):len(inner)], buf[:n], buf[n:]
	changed := false
	for i, r := range ratios {
		f := g.factor(sts[i].TemperatureC)
		scaled[i] = r * f
		if f < 1 {
			changed = true
		}
	}
	if !changed {
		return out[:len(inner)], nil
	}
	if err := renormalize(scaled); err != nil {
		// Every cell is above the hard limit: fall back to the inner
		// allocation and let the firmware protection handle it.
		return out[:len(inner)], nil
	}
	dischargeCaps(caps, sts)
	if err := capAndRedistribute(scaled, caps, loadW); err != nil {
		return nil, err
	}
	copy(ratios, scaled)
	return out[:len(inner)], nil
}

// factor maps a cell temperature to a weight multiplier: 1 below the
// soft limit, linear to 0 at the hard limit.
func (g ThermalGuard) factor(tempC float64) float64 {
	switch {
	case tempC <= g.SoftLimitC:
		return 1
	case tempC >= g.HardLimitC:
		return 0
	}
	return (g.HardLimitC - tempC) / (g.HardLimitC - g.SoftLimitC)
}
