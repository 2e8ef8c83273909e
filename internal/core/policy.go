// Package core implements the SDB Runtime — the OS-resident half of
// Software Defined Batteries (Section 3.3). The runtime polls battery
// state through the microcontroller API, runs charge/discharge
// allocation policies, and pushes the resulting power-ratio vectors
// back to the firmware.
//
// Two metric families drive the built-in policies, exactly as in the
// paper:
//
//   - RBL (Remaining Battery Lifetime): useful charge left assuming no
//     further charging. The RBL-Discharge and RBL-Charge algorithms
//     allocate currents to minimize instantaneous resistive losses
//     (loss is proportional to I^2 R, so the loss-optimal power split
//     weights each battery by V^2/R, refined by the DCIR slope).
//
//   - CCB (Cycle Count Balance): the ratio between the most and least
//     worn battery, normalized to each battery's tolerable cycle
//     count. The CCB algorithms steer throughput toward batteries
//     with the most remaining cycle headroom.
//
// A scalar directive parameter in [0,1], handed down by the rest of
// the OS, blends the two families: 0 prioritizes CCB (no hurry,
// preserve longevity), 1 prioritizes RBL (maximize immediately useful
// charge — the "about to board a plane" case).
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"sdb/internal/pmic"
)

// DischargePolicy computes the discharge power-ratio vector for the
// current battery state and load.
//
// Both policy interfaces follow one append contract, so the runtime's
// tick can reuse a single buffer and allocate nothing:
//
//   - A policy appends exactly len(sts) ratios to dst and returns the
//     extended slice. dst[:len(dst)] is left as it was.
//   - It may overwrite dst's capacity past the appended ratios as
//     scratch (growing it if short), so nothing there survives the call
//     and nothing there may be read before it is written.
//   - It never retains dst, and on error it returns a nil slice.
type DischargePolicy interface {
	// Name identifies the policy in traces and experiment tables.
	Name() string
	// DischargeRatios appends a vector of len(sts) non-negative ratios
	// summing to 1 to dst.
	DischargeRatios(dst []float64, sts []pmic.BatteryStatus, loadW float64) ([]float64, error)
}

// ChargePolicy computes the charge power-ratio vector for the current
// battery state and available charging power. It follows
// DischargePolicy's append contract.
type ChargePolicy interface {
	Name() string
	ChargeRatios(dst []float64, sts []pmic.BatteryStatus, chargeW float64) ([]float64, error)
}

// RBLDischarge is the paper's RBL-Discharge algorithm: allocate the
// load to minimize instantaneous resistive losses. Minimizing
// sum(I_i^2 R_i) subject to sum(V_i I_i) = P gives I_i proportional to
// V_i / R_i, i.e. a power share proportional to V_i^2 / R_i. With
// DerivativeAware set, the effective resistance R'_i = R_i + delta_i
// y_i (delta_i the DCIR-curve slope at the current state of charge) is
// refined by fixed-point iteration, matching the paper's Lagrangian
// formulation.
type RBLDischarge struct {
	// DerivativeAware enables the R'_i = R_i + delta_i*y_i refinement.
	DerivativeAware bool
}

// Name implements DischargePolicy.
func (p RBLDischarge) Name() string {
	if p.DerivativeAware {
		return "rbl-discharge-derivative"
	}
	return "rbl-discharge"
}

// DischargeRatios implements DischargePolicy.
func (p RBLDischarge) DischargeRatios(dst []float64, sts []pmic.BatteryStatus, loadW float64) ([]float64, error) {
	if len(sts) == 0 {
		return nil, errors.New("core: no battery status")
	}
	n := len(sts)
	// The weights are the result; the effective resistance per cell
	// and the caps are scratch past them.
	out, buf := extend(dst, 3*n)
	weights, res, caps := buf[:n], buf[n:2*n], buf[2*n:]
	for i := range sts {
		res[i] = sts[i].DCIR
	}
	const iters = 6
	for round := 0; ; round++ {
		for i := range sts {
			s := &sts[i]
			if s.SoC <= 1e-6 || res[i] <= 0 {
				weights[i] = 0
				continue
			}
			weights[i] = s.TerminalV * s.TerminalV / res[i]
		}
		if !p.DerivativeAware || round >= iters {
			break
		}
		// Estimate per-cell current from the current weights and
		// refine the effective resistance with the DCIR slope. The
		// slope is d(DCIR)/d(SoC), negative when resistance falls as
		// charge rises; drawing current lowers SoC, raising future
		// resistance, so cells on steep segments are de-weighted. The
		// weights are normalized into shares in place: the next round
		// recomputes every one of them.
		if err := normalize(weights); err != nil {
			break
		}
		shares := weights
		for i := range sts {
			s := &sts[i]
			if shares[i] <= 0 || s.TerminalV <= 0 {
				continue
			}
			y := shares[i] * loadW / s.TerminalV
			// Per-coulomb SoC sensitivity scales the slope into ohms
			// of projected resistance growth at this current.
			var dSoC float64
			if s.CapacityCoulombs > 0 {
				dSoC = y / s.CapacityCoulombs * 3600 // SoC change per hour at y amps
			}
			eff := s.DCIR + math.Abs(s.DCIRSlope)*dSoC
			if eff > 0 {
				res[i] = eff
			}
		}
	}
	dischargeCaps(caps, sts)
	return weighted(dst, out, weights, caps, loadW)
}

// RBLCharge is the paper's RBL-Charge algorithm: push charge where it
// incurs the least resistive loss, weighting each chargeable battery
// by V^2/R and respecting per-battery charge power limits.
type RBLCharge struct{}

// Name implements ChargePolicy.
func (RBLCharge) Name() string { return "rbl-charge" }

// ChargeRatios implements ChargePolicy.
func (RBLCharge) ChargeRatios(dst []float64, sts []pmic.BatteryStatus, chargeW float64) ([]float64, error) {
	if len(sts) == 0 {
		return nil, errors.New("core: no battery status")
	}
	n := len(sts)
	out, buf := extend(dst, 2*n)
	weights, caps := buf[:n], buf[n:]
	for i := range sts {
		s := &sts[i]
		weights[i] = 0
		if s.SoC >= 1-1e-6 || s.DCIR <= 0 {
			continue
		}
		weights[i] = s.TerminalV * s.TerminalV / s.DCIR
	}
	chargeCaps(caps, sts)
	return weighted(dst, out, weights, caps, chargeW)
}

// CCBDischarge steers discharge toward the batteries with the most
// remaining cycle headroom so that wear ratios converge (CCB -> 1).
type CCBDischarge struct{}

// Name implements DischargePolicy.
func (CCBDischarge) Name() string { return "ccb-discharge" }

// DischargeRatios implements DischargePolicy.
func (CCBDischarge) DischargeRatios(dst []float64, sts []pmic.BatteryStatus, loadW float64) ([]float64, error) {
	if len(sts) == 0 {
		return nil, errors.New("core: no battery status")
	}
	n := len(sts)
	out, buf := extend(dst, 2*n)
	weights, caps := buf[:n], buf[n:]
	cycleHeadroom(weights, sts, false)
	dischargeCaps(caps, sts)
	return weighted(dst, out, weights, caps, loadW)
}

// CCBCharge steers charge toward the batteries with the most remaining
// cycle headroom.
type CCBCharge struct{}

// Name implements ChargePolicy.
func (CCBCharge) Name() string { return "ccb-charge" }

// ChargeRatios implements ChargePolicy.
func (CCBCharge) ChargeRatios(dst []float64, sts []pmic.BatteryStatus, chargeW float64) ([]float64, error) {
	if len(sts) == 0 {
		return nil, errors.New("core: no battery status")
	}
	n := len(sts)
	out, buf := extend(dst, 2*n)
	weights, caps := buf[:n], buf[n:]
	cycleHeadroom(weights, sts, true)
	chargeCaps(caps, sts)
	return weighted(dst, out, weights, caps, chargeW)
}

// cycleHeadroom writes per-battery remaining tolerable cycles into w;
// empty (or, for charging, full) batteries weigh zero.
func cycleHeadroom(w []float64, sts []pmic.BatteryStatus, charging bool) {
	for i := range sts {
		s := &sts[i]
		w[i] = 0
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
}

// Blended mixes a CCB-family and an RBL-family policy with the
// directive parameter of Section 3.3: weight d on RBL, (1-d) on CCB.
type Blended struct {
	CCBDis DischargePolicy
	RBLDis DischargePolicy
	CCBChg ChargePolicy
	RBLChg ChargePolicy

	directive func() (chg, dis float64)
}

// NewBlended builds the standard blend with a directive source (the
// rest of the OS hands directives down; directiveFn returns the
// current charging and discharging directive, each in [0,1]).
func NewBlended(directiveFn func() (chg, dis float64)) *Blended {
	return &Blended{
		CCBDis:    CCBDischarge{},
		RBLDis:    RBLDischarge{DerivativeAware: true},
		CCBChg:    CCBCharge{},
		RBLChg:    RBLCharge{},
		directive: directiveFn,
	}
}

// Name implements both policy interfaces.
func (b *Blended) Name() string { return "blended" }

// DischargeRatios implements DischargePolicy: RBL's vector is appended
// after CCB's and the two are mixed in place.
func (b *Blended) DischargeRatios(dst []float64, sts []pmic.BatteryStatus, loadW float64) ([]float64, error) {
	_, d := b.directive()
	ccb, err := b.CCBDis.DischargeRatios(dst, sts, loadW)
	if err != nil {
		return nil, err
	}
	both, err := b.RBLDis.DischargeRatios(ccb, sts, loadW)
	if err != nil {
		return nil, err
	}
	return mix(both, len(dst), len(ccb), d)
}

// ChargeRatios implements ChargePolicy, blending like DischargeRatios.
func (b *Blended) ChargeRatios(dst []float64, sts []pmic.BatteryStatus, chargeW float64) ([]float64, error) {
	c, _ := b.directive()
	ccb, err := b.CCBChg.ChargeRatios(dst, sts, chargeW)
	if err != nil {
		return nil, err
	}
	both, err := b.RBLChg.ChargeRatios(ccb, sts, chargeW)
	if err != nil {
		return nil, err
	}
	return mix(both, len(dst), len(ccb), c)
}

// Reserve is the schedule-aware discharge policy of Section 5.2: spend
// the expendable battery first and preserve the reserved battery for
// an anticipated high-power workload. Load up to SpillW is routed to
// the expendable battery while it has charge; only the excess (or
// everything, once the expendable battery drains) comes from the
// reserve.
type Reserve struct {
	// ReserveIdx is the battery to preserve (the efficient Li-ion cell
	// in the smartwatch scenario).
	ReserveIdx int
	// SpillW is the largest load the expendable batteries should carry
	// alone; 0 means their full capability.
	SpillW float64
	// HighPowerW, when positive, marks the anticipated power-intensive
	// workload: any load at or above it is served entirely by the
	// reserve battery (that is what it was being preserved for).
	HighPowerW float64
}

// Name implements DischargePolicy.
func (Reserve) Name() string { return "reserve" }

// DischargeRatios implements DischargePolicy.
func (p Reserve) DischargeRatios(dst []float64, sts []pmic.BatteryStatus, loadW float64) ([]float64, error) {
	n := len(sts)
	if n == 0 {
		return nil, errors.New("core: no battery status")
	}
	if p.ReserveIdx < 0 || p.ReserveIdx >= n {
		return nil, fmt.Errorf("core: reserve index %d out of range", p.ReserveIdx)
	}
	if loadW <= 0 {
		return appendUniform(dst, n), nil
	}
	out, buf := extend(dst, 2*n)
	ratios, caps := buf[:n], buf[n:]
	clear(ratios)
	dischargeCaps(caps, sts)
	if p.HighPowerW > 0 && loadW >= p.HighPowerW && sts[p.ReserveIdx].SoC > 1e-6 {
		// The anticipated high-power workload arrived: run it on the
		// battery that was reserved for it, spilling only what exceeds
		// the reserve's capability.
		fromRes := math.Min(loadW, sts[p.ReserveIdx].MaxDischargeW)
		ratios[p.ReserveIdx] = fromRes / loadW
		if rest := loadW - fromRes; rest > 0 {
			expCap := p.expendableCap(sts)
			for i := range sts {
				if i != p.ReserveIdx && sts[i].SoC > 1e-6 && expCap > 0 {
					ratios[i] = rest / loadW * (sts[i].MaxDischargeW / expCap)
				}
			}
		}
		if err := renormalize(ratios); err != nil {
			return nil, err
		}
		if err := capAndRedistribute(ratios, caps, loadW); err != nil {
			return nil, err
		}
		return out[:len(dst)+n], nil
	}
	expCap := p.expendableCap(sts)
	spill := expCap
	if p.SpillW > 0 {
		spill = math.Min(spill, p.SpillW)
	}
	fromExp := math.Min(loadW, spill)
	fromRes := loadW - fromExp
	if sts[p.ReserveIdx].SoC <= 1e-6 {
		fromExp, fromRes = loadW, 0
	}

	if fromExp > 0 && expCap > 0 {
		// Split the expendable part across expendables by capability.
		for i := range sts {
			if i != p.ReserveIdx && sts[i].SoC > 1e-6 {
				ratios[i] = fromExp / loadW * (sts[i].MaxDischargeW / expCap)
			}
		}
	} else if fromExp > 0 {
		// Nothing expendable left: dump on the reserve.
		fromRes += fromExp
	}
	ratios[p.ReserveIdx] = fromRes / loadW
	if err := renormalize(ratios); err != nil {
		// Everything is empty: the vector is moot.
		return appendUniform(out[:len(dst)], n), nil
	}
	if err := capAndRedistribute(ratios, caps, loadW); err != nil {
		return nil, err
	}
	return out[:len(dst)+n], nil
}

// expendableCap is the capability of the expendable set: every
// non-reserve battery with charge.
func (p Reserve) expendableCap(sts []pmic.BatteryStatus) float64 {
	var expCap float64
	for i := range sts {
		if i != p.ReserveIdx && sts[i].SoC > 1e-6 {
			expCap += sts[i].MaxDischargeW
		}
	}
	return expCap
}

// Proportional is the non-SDB baseline: a traditional multi-cell pack
// connected in parallel shares current in inverse proportion to
// internal resistance, with no awareness of wear, efficiency, or
// workload (Section 1).
type Proportional struct{}

// Name implements both policy interfaces.
func (Proportional) Name() string { return "proportional-baseline" }

// DischargeRatios implements DischargePolicy.
func (Proportional) DischargeRatios(dst []float64, sts []pmic.BatteryStatus, loadW float64) ([]float64, error) {
	if len(sts) == 0 {
		return nil, errors.New("core: no battery status")
	}
	n := len(sts)
	out, buf := extend(dst, 2*n)
	w, caps := buf[:n], buf[n:]
	for i := range sts {
		w[i] = 0
		if s := &sts[i]; s.SoC > 1e-6 && s.DCIR > 0 {
			w[i] = 1 / s.DCIR
		}
	}
	dischargeCaps(caps, sts)
	return weighted(dst, out, w, caps, loadW)
}

// ChargeRatios implements ChargePolicy: parallel cells absorb charge
// in inverse proportion to resistance too.
func (p Proportional) ChargeRatios(dst []float64, sts []pmic.BatteryStatus, chargeW float64) ([]float64, error) {
	if len(sts) == 0 {
		return nil, errors.New("core: no battery status")
	}
	n := len(sts)
	out, buf := extend(dst, 2*n)
	w, caps := buf[:n], buf[n:]
	for i := range sts {
		w[i] = 0
		if s := &sts[i]; s.SoC < 1-1e-6 && s.DCIR > 0 {
			w[i] = 1 / s.DCIR
		}
	}
	chargeCaps(caps, sts)
	return weighted(dst, out, w, caps, chargeW)
}

// FixedRatios always returns the same vector — the "hardcoded in
// firmware" strawman of Section 7 and a useful experiment control.
type FixedRatios struct {
	Label  string
	Ratios []float64
}

// Name implements both policy interfaces.
func (f FixedRatios) Name() string {
	if f.Label != "" {
		return f.Label
	}
	return "fixed"
}

// DischargeRatios implements DischargePolicy.
func (f FixedRatios) DischargeRatios(dst []float64, sts []pmic.BatteryStatus, _ float64) ([]float64, error) {
	return f.vector(dst, len(sts))
}

// ChargeRatios implements ChargePolicy.
func (f FixedRatios) ChargeRatios(dst []float64, sts []pmic.BatteryStatus, _ float64) ([]float64, error) {
	return f.vector(dst, len(sts))
}

func (f FixedRatios) vector(dst []float64, n int) ([]float64, error) {
	if len(f.Ratios) != n {
		return nil, fmt.Errorf("core: fixed policy has %d ratios for %d batteries", len(f.Ratios), n)
	}
	out := append(dst, f.Ratios...)
	if err := renormalize(out[len(dst):]); err != nil {
		return nil, err
	}
	return out, nil
}

// ---- in-place helpers ----

// extend grows dst by n elements, reallocating only when its capacity
// is short, and returns the extended slice and the n-element window it
// added. The window holds whatever an earlier user left there: callers
// write every element before reading it.
func extend(dst []float64, n int) (out, win []float64) {
	l := len(dst)
	out = slices.Grow(dst, n)[:l+n]
	return out, out[l:]
}

// weighted finishes a weight-based policy whose weights are the window
// of out just past dst: they are normalized into shares and capped at
// capsW for totalW, and out is cut back to the shares. All-zero weights
// (every battery empty, or full when charging) make the vector moot,
// so a neutral uniform split is appended to dst instead.
func weighted(dst, out, w, capsW []float64, totalW float64) ([]float64, error) {
	if err := normalize(w); err != nil {
		return appendUniform(out[:len(dst)], len(w)), nil
	}
	if err := capAndRedistribute(w, capsW, totalW); err != nil {
		return nil, err
	}
	return out[:len(dst)+len(w)], nil
}

// dischargeCaps writes each battery's discharge capability into caps.
func dischargeCaps(caps []float64, sts []pmic.BatteryStatus) {
	for i := range caps {
		caps[i] = sts[i].MaxDischargeW
	}
}

// chargeCaps writes each battery's charge capability into caps.
func chargeCaps(caps []float64, sts []pmic.BatteryStatus) {
	for i := range caps {
		caps[i] = sts[i].MaxChargeW
	}
}

// normalize scales non-negative weights in place to sum to 1. On error
// w is untouched.
func normalize(w []float64) error {
	var sum float64
	for _, x := range w {
		if x < 0 || math.IsNaN(x) {
			return fmt.Errorf("core: negative or NaN weight %g", x)
		}
		sum += x
	}
	if sum <= 0 {
		return errors.New("core: all weights zero")
	}
	for i, x := range w {
		w[i] = x / sum
	}
	return nil
}

// renormalize scales a vector in place to sum to 1. On error r is
// untouched.
func renormalize(r []float64) error {
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

// mix blends the two ratio vectors a = out[l:m] and b = out[m:] into
// a, in place, as (1-d)*a + d*b renormalized, and returns out[:m].
func mix(out []float64, l, m int, d float64) ([]float64, error) {
	a, b := out[l:m], out[m:]
	if len(a) != len(b) {
		return nil, fmt.Errorf("core: blend length mismatch %d vs %d", len(a), len(b))
	}
	d = clamp01(d)
	for i := range a {
		a[i] = (1-d)*a[i] + d*b[i]
	}
	if err := renormalize(a); err != nil {
		return nil, err
	}
	return out[:m], nil
}

// appendUniform appends n ratios of 1/n to dst.
func appendUniform(dst []float64, n int) []float64 {
	out, r := extend(dst, n)
	for i := range r {
		r[i] = 1 / float64(n)
	}
	return out
}

// capAndRedistribute limits each battery's power share to its
// capability at the given total power, in place, shifting excess onto
// batteries with headroom. If the total exceeds the pack's aggregate
// capability the original proportions are kept for the overflow (the
// firmware will brown out and flag it).
func capAndRedistribute(out, capsW []float64, totalW float64) error {
	if totalW <= 0 {
		return nil
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
	return renormalize(out)
}
