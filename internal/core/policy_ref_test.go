package core

import (
	"errors"
	"fmt"
	"math"

	"sdb/internal/pmic"
)

// Reference implementations for FuzzPolicies: the built-in policies as
// they were before the append contract, each returning a freshly
// allocated vector. The bodies are kept statement for statement (only
// the receivers became parameters), so the fuzz target can require the
// in-place policies to reproduce them bit for bit.

// refPolicy is one reference policy bound to its configuration.
type refPolicy func(sts []pmic.BatteryStatus, totalW float64) ([]float64, error)

func refRBLDischarge(p RBLDischarge) refPolicy {
	return func(sts []pmic.BatteryStatus, loadW float64) ([]float64, error) {
		if len(sts) == 0 {
			return nil, errors.New("core: no battery status")
		}
		n := len(sts)
		res := make([]float64, n) // effective resistance per cell
		for i, s := range sts {
			res[i] = s.DCIR
		}
		weights := make([]float64, n)
		const iters = 6
		for round := 0; ; round++ {
			for i, s := range sts {
				if s.SoC <= 1e-6 || res[i] <= 0 {
					weights[i] = 0
					continue
				}
				weights[i] = s.TerminalV * s.TerminalV / res[i]
			}
			if !p.DerivativeAware || round >= iters {
				break
			}
			shares, err := refNormalize(weights)
			if err != nil {
				break
			}
			for i, s := range sts {
				if shares[i] <= 0 || s.TerminalV <= 0 {
					continue
				}
				y := shares[i] * loadW / s.TerminalV
				var dSoC float64
				if s.CapacityCoulombs > 0 {
					dSoC = y / s.CapacityCoulombs * 3600
				}
				eff := s.DCIR + math.Abs(s.DCIRSlope)*dSoC
				if eff > 0 {
					res[i] = eff
				}
			}
		}
		shares, err := refNormalize(weights)
		if err != nil {
			return refUniform(n), nil
		}
		return refCapAndRedistribute(shares, refDischargeCaps(sts), loadW)
	}
}

func refRBLCharge(sts []pmic.BatteryStatus, chargeW float64) ([]float64, error) {
	if len(sts) == 0 {
		return nil, errors.New("core: no battery status")
	}
	weights := make([]float64, len(sts))
	for i, s := range sts {
		if s.SoC >= 1-1e-6 || s.DCIR <= 0 {
			continue
		}
		weights[i] = s.TerminalV * s.TerminalV / s.DCIR
	}
	shares, err := refNormalize(weights)
	if err != nil {
		return refUniform(len(sts)), nil
	}
	return refCapAndRedistribute(shares, refChargeCaps(sts), chargeW)
}

func refCCBDischarge(sts []pmic.BatteryStatus, loadW float64) ([]float64, error) {
	if len(sts) == 0 {
		return nil, errors.New("core: no battery status")
	}
	shares, err := refNormalize(refCycleHeadroom(sts, false))
	if err != nil {
		return refUniform(len(sts)), nil
	}
	return refCapAndRedistribute(shares, refDischargeCaps(sts), loadW)
}

func refCCBCharge(sts []pmic.BatteryStatus, chargeW float64) ([]float64, error) {
	if len(sts) == 0 {
		return nil, errors.New("core: no battery status")
	}
	shares, err := refNormalize(refCycleHeadroom(sts, true))
	if err != nil {
		return refUniform(len(sts)), nil
	}
	return refCapAndRedistribute(shares, refChargeCaps(sts), chargeW)
}

func refCycleHeadroom(sts []pmic.BatteryStatus, charging bool) []float64 {
	w := make([]float64, len(sts))
	for i, s := range sts {
		if charging && s.SoC >= 1-1e-6 {
			continue
		}
		if !charging && s.SoC <= 1e-6 {
			continue
		}
		head := s.RatedCycles * (1 - s.WearRatio)
		if head > 0 {
			w[i] = head
		}
	}
	return w
}

// refBlended is Blended's DischargeRatios or ChargeRatios with the
// directive d already read.
func refBlended(ccbP, rblP refPolicy, d float64) refPolicy {
	return func(sts []pmic.BatteryStatus, totalW float64) ([]float64, error) {
		ccb, err := ccbP(sts, totalW)
		if err != nil {
			return nil, err
		}
		rbl, err := rblP(sts, totalW)
		if err != nil {
			return nil, err
		}
		return refMix(ccb, rbl, d)
	}
}

func refReserve(p Reserve) refPolicy {
	return func(sts []pmic.BatteryStatus, loadW float64) ([]float64, error) {
		n := len(sts)
		if n == 0 {
			return nil, errors.New("core: no battery status")
		}
		if p.ReserveIdx < 0 || p.ReserveIdx >= n {
			return nil, fmt.Errorf("core: reserve index %d out of range", p.ReserveIdx)
		}
		if loadW <= 0 {
			return refUniform(n), nil
		}
		if p.HighPowerW > 0 && loadW >= p.HighPowerW && sts[p.ReserveIdx].SoC > 1e-6 {
			ratios := make([]float64, n)
			fromRes := math.Min(loadW, sts[p.ReserveIdx].MaxDischargeW)
			ratios[p.ReserveIdx] = fromRes / loadW
			if rest := loadW - fromRes; rest > 0 {
				var expCap float64
				for i, s := range sts {
					if i != p.ReserveIdx && s.SoC > 1e-6 {
						expCap += s.MaxDischargeW
					}
				}
				for i, s := range sts {
					if i != p.ReserveIdx && s.SoC > 1e-6 && expCap > 0 {
						ratios[i] = rest / loadW * (s.MaxDischargeW / expCap)
					}
				}
			}
			if err := refRenormalize(ratios); err != nil {
				return nil, err
			}
			return refCapAndRedistribute(ratios, refDischargeCaps(sts), loadW)
		}
		var expCap float64
		for i, s := range sts {
			if i != p.ReserveIdx && s.SoC > 1e-6 {
				expCap += s.MaxDischargeW
			}
		}
		spill := expCap
		if p.SpillW > 0 {
			spill = math.Min(spill, p.SpillW)
		}
		fromExp := math.Min(loadW, spill)
		fromRes := loadW - fromExp
		if sts[p.ReserveIdx].SoC <= 1e-6 {
			fromExp, fromRes = loadW, 0
		}

		ratios := make([]float64, n)
		if fromExp > 0 && expCap > 0 {
			for i, s := range sts {
				if i != p.ReserveIdx && s.SoC > 1e-6 {
					ratios[i] = fromExp / loadW * (s.MaxDischargeW / expCap)
				}
			}
		} else if fromExp > 0 {
			fromRes += fromExp
		}
		ratios[p.ReserveIdx] = fromRes / loadW
		if err := refRenormalize(ratios); err != nil {
			return refUniform(n), nil
		}
		return refCapAndRedistribute(ratios, refDischargeCaps(sts), loadW)
	}
}

func refProportionalDischarge(sts []pmic.BatteryStatus, loadW float64) ([]float64, error) {
	if len(sts) == 0 {
		return nil, errors.New("core: no battery status")
	}
	w := make([]float64, len(sts))
	for i, s := range sts {
		if s.SoC > 1e-6 && s.DCIR > 0 {
			w[i] = 1 / s.DCIR
		}
	}
	shares, err := refNormalize(w)
	if err != nil {
		return refUniform(len(sts)), nil
	}
	return refCapAndRedistribute(shares, refDischargeCaps(sts), loadW)
}

func refProportionalCharge(sts []pmic.BatteryStatus, chargeW float64) ([]float64, error) {
	if len(sts) == 0 {
		return nil, errors.New("core: no battery status")
	}
	w := make([]float64, len(sts))
	for i, s := range sts {
		if s.SoC < 1-1e-6 && s.DCIR > 0 {
			w[i] = 1 / s.DCIR
		}
	}
	shares, err := refNormalize(w)
	if err != nil {
		return refUniform(len(sts)), nil
	}
	return refCapAndRedistribute(shares, refChargeCaps(sts), chargeW)
}

func refFixed(f FixedRatios) refPolicy {
	return func(sts []pmic.BatteryStatus, _ float64) ([]float64, error) {
		n := len(sts)
		if len(f.Ratios) != n {
			return nil, fmt.Errorf("core: fixed policy has %d ratios for %d batteries", len(f.Ratios), n)
		}
		out := append([]float64(nil), f.Ratios...)
		if err := refRenormalize(out); err != nil {
			return nil, err
		}
		return out, nil
	}
}

func refThermalGuard(g ThermalGuard, inner refPolicy) refPolicy {
	return func(sts []pmic.BatteryStatus, loadW float64) ([]float64, error) {
		if g.Inner == nil {
			return nil, errors.New("core: thermal guard needs an inner policy")
		}
		if g.SoftLimitC <= 0 || g.HardLimitC <= g.SoftLimitC {
			return nil, fmt.Errorf("core: thermal guard needs 0 < soft (%g) < hard (%g)", g.SoftLimitC, g.HardLimitC)
		}
		ratios, err := inner(sts, loadW)
		if err != nil {
			return nil, err
		}
		scaled := make([]float64, len(ratios))
		changed := false
		for i, r := range ratios {
			f := g.factor(sts[i].TemperatureC)
			scaled[i] = r * f
			if f < 1 {
				changed = true
			}
		}
		if !changed {
			return ratios, nil
		}
		if err := refRenormalize(scaled); err != nil {
			return ratios, nil
		}
		return refCapAndRedistribute(scaled, refDischargeCaps(sts), loadW)
	}
}

func refDischargeCaps(sts []pmic.BatteryStatus) []float64 {
	caps := make([]float64, len(sts))
	for i, s := range sts {
		caps[i] = s.MaxDischargeW
	}
	return caps
}

func refChargeCaps(sts []pmic.BatteryStatus) []float64 {
	caps := make([]float64, len(sts))
	for i, s := range sts {
		caps[i] = s.MaxChargeW
	}
	return caps
}

func refNormalize(w []float64) ([]float64, error) {
	var sum float64
	for _, x := range w {
		if x < 0 || math.IsNaN(x) {
			return nil, fmt.Errorf("core: negative or NaN weight %g", x)
		}
		sum += x
	}
	if sum <= 0 {
		return nil, errors.New("core: all weights zero")
	}
	out := make([]float64, len(w))
	for i, x := range w {
		out[i] = x / sum
	}
	return out, nil
}

func refRenormalize(r []float64) error {
	var sum float64
	for _, x := range r {
		if x < 0 || math.IsNaN(x) {
			return fmt.Errorf("core: invalid ratio %g", x)
		}
		sum += x
	}
	if sum <= 0 {
		return errors.New("core: ratio vector sums to zero")
	}
	for i := range r {
		r[i] /= sum
	}
	return nil
}

func refMix(a, b []float64, d float64) ([]float64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("core: blend length mismatch %d vs %d", len(a), len(b))
	}
	d = math.Max(0, math.Min(1, d))
	out := make([]float64, len(a))
	for i := range out {
		out[i] = (1-d)*a[i] + d*b[i]
	}
	if err := refRenormalize(out); err != nil {
		return nil, err
	}
	return out, nil
}

func refUniform(n int) []float64 {
	r := make([]float64, n)
	for i := range r {
		r[i] = 1 / float64(n)
	}
	return r
}

func refCapAndRedistribute(shares, capsW []float64, totalW float64) ([]float64, error) {
	out := append([]float64(nil), shares...)
	if totalW <= 0 {
		return out, nil
	}
	for round := 0; round < 4; round++ {
		var excess, headroom float64
		for i := range out {
			p := out[i] * totalW
			if p > capsW[i] {
				excess += p - capsW[i]
				out[i] = capsW[i] / totalW
			} else {
				headroom += capsW[i] - p
			}
		}
		if excess <= 1e-12 || headroom <= 1e-12 {
			break
		}
		scale := math.Min(1, excess/headroom)
		for i := range out {
			p := out[i] * totalW
			if p < capsW[i] {
				out[i] += (capsW[i] - p) * scale / totalW
			}
		}
	}
	if err := refRenormalize(out); err != nil {
		return nil, err
	}
	return out, nil
}
