// Package circuit models the SDB power-path hardware of Section 3.2:
// the modified switched-mode regulator that discharges multiple
// batteries in weighted round-robin fashion, and the O(N) synchronous
// reversible buck regulators that charge batteries from external power
// or from each other. The models are calibrated so the loss and error
// envelopes match the paper's Figure 6 microbenchmarks:
//
//	6(a) discharge-path loss:   ~1% at light load, ~1.6% at 10 W
//	6(b) ratio-setting error:   < 0.6% across 1%..99% settings
//	6(c) charger efficiency:    ~100% of typical at light load, ~94% at 2.2 A
//	6(d) charge-current error:  <= 0.5% across 0.2..2.0 A
//
// Physical effects are deterministic functions of the commanded
// setting (duty/DAC quantization plus a reproducible pseudo-random
// component tolerance), so simulations are repeatable.
package circuit

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"sdb/internal/battery"
)

// DischargeConfig parameterizes the weighted round-robin discharge path.
type DischargeConfig struct {
	// Resolution is the number of duty-cycle quantization steps the
	// switching controller supports per period.
	Resolution int
	// BaseLossFrac is the fractional loss at light load (switching
	// overhead), and SlopeLossFracPerW adds conduction loss per watt.
	BaseLossFrac      float64
	SlopeLossFracPerW float64
	// ToleranceFrac bounds the per-channel component tolerance applied
	// on top of quantization (resistor/current-sense mismatch).
	ToleranceFrac float64
}

// DefaultDischargeConfig returns the configuration calibrated to
// Figure 6(a)/(b): 8192-step duty resolution (a 1% setting must stay
// within the paper's 0.6% error bound), 0.9% base loss growing to
// ~1.6% at 10 W, 0.2% component tolerance.
func DefaultDischargeConfig() DischargeConfig {
	return DischargeConfig{
		Resolution:        8192,
		BaseLossFrac:      0.009,
		SlopeLossFracPerW: 0.0007,
		ToleranceFrac:     0.002,
	}
}

// DischargePath is the multi-battery discharge regulator. It converts
// a commanded ratio vector into the realized per-battery power shares,
// accounting for duty quantization, component tolerance, and loss.
type DischargePath struct {
	cfg DischargeConfig
}

// NewDischargePath validates the configuration and builds the path.
func NewDischargePath(cfg DischargeConfig) (*DischargePath, error) {
	switch {
	case cfg.Resolution < 2:
		return nil, fmt.Errorf("circuit: discharge resolution %d too low", cfg.Resolution)
	case cfg.BaseLossFrac < 0 || cfg.BaseLossFrac > 0.2:
		return nil, fmt.Errorf("circuit: base loss fraction %g out of range", cfg.BaseLossFrac)
	case cfg.SlopeLossFracPerW < 0:
		return nil, errors.New("circuit: negative loss slope")
	case cfg.ToleranceFrac < 0 || cfg.ToleranceFrac > 0.05:
		return nil, fmt.Errorf("circuit: tolerance %g out of range", cfg.ToleranceFrac)
	}
	return &DischargePath{cfg: cfg}, nil
}

// LossFraction returns the fraction of the load power dissipated by the
// discharge path at the given load (Figure 6(a)).
func (d *DischargePath) LossFraction(loadW float64) float64 {
	if loadW <= 0 {
		return 0
	}
	return d.cfg.BaseLossFrac + d.cfg.SlopeLossFracPerW*loadW
}

// RealizedRatios returns the per-battery power shares the hardware
// actually enforces for the commanded ratios: each ratio is quantized
// to the duty resolution and perturbed by the deterministic component
// tolerance of its channel, then the vector is renormalized (the
// switching period always sums to one). The commanded vector must be
// non-negative and sum to 1 within 1e-6.
func (d *DischargePath) RealizedRatios(ratios []float64) ([]float64, error) {
	out := make([]float64, len(ratios))
	if err := d.RealizedRatiosInto(out, ratios); err != nil {
		return nil, err
	}
	return out, nil
}

// RealizedRatiosInto is RealizedRatios writing into a caller-provided
// buffer (len(dst) == len(ratios)) so per-step callers allocate
// nothing. dst and ratios must not overlap.
func (d *DischargePath) RealizedRatiosInto(dst, ratios []float64) error {
	if err := ValidateRatios(ratios); err != nil {
		return err
	}
	if len(dst) != len(ratios) {
		return fmt.Errorf("circuit: ratio buffer has %d slots for %d ratios", len(dst), len(ratios))
	}
	var sum float64
	for i, r := range ratios {
		q := math.Round(r*float64(d.cfg.Resolution)) / float64(d.cfg.Resolution)
		q *= 1 + d.cfg.ToleranceFrac*jitter(uint64(i)*2654435761+uint64(math.Round(r*1e6)))
		if q < 0 {
			q = 0
		}
		dst[i] = q
		sum += q
	}
	if sum <= 0 {
		return errors.New("circuit: quantized ratios vanished")
	}
	for i := range dst {
		dst[i] /= sum
	}
	return nil
}

// Split apportions a load among batteries: given the commanded ratios
// and the load power at the regulator output, it returns the power
// drawn from each battery terminal (including the path loss, which the
// batteries must supply) and the total loss in watts.
func (d *DischargePath) Split(ratios []float64, loadW float64) (perBattery []float64, lossW float64, err error) {
	perBattery = make([]float64, len(ratios))
	lossW, err = d.SplitInto(perBattery, ratios, loadW)
	if err != nil {
		return nil, 0, err
	}
	return perBattery, lossW, nil
}

// SplitInto is Split writing the per-battery powers into a
// caller-provided buffer (len(dst) == len(ratios)), allocating
// nothing. This is the form the PMIC firmware calls every enforcement
// step.
func (d *DischargePath) SplitInto(dst []float64, ratios []float64, loadW float64) (lossW float64, err error) {
	if loadW < 0 {
		return 0, fmt.Errorf("circuit: negative load %g W", loadW)
	}
	if err := d.RealizedRatiosInto(dst, ratios); err != nil {
		return 0, err
	}
	lossW = loadW * d.LossFraction(loadW)
	total := loadW + lossW
	for i, r := range dst {
		dst[i] = r * total
	}
	return lossW, nil
}

// ChargerConfig parameterizes one synchronous reversible buck channel.
type ChargerConfig struct {
	// MaxCurrentA is the full-scale charge current of the channel.
	MaxCurrentA float64
	// DACSteps is the current-setting resolution.
	DACSteps int
	// RelEfficiency maps charge current (amperes) to efficiency as a
	// fraction of the charger chip's typical efficiency (Figure 6(c)).
	RelEfficiency battery.Curve
	// TypicalEfficiency is the chip's datasheet efficiency.
	TypicalEfficiency float64
	// ToleranceFrac bounds the deterministic current-sense tolerance.
	ToleranceFrac float64
}

// relEfficiency is the Figure 6(c) curve in dense form: the charger
// efficiency is evaluated per cell per charging step; knots are
// multiples of 0.2 over [0, 2.2], so a multiple-of-11 grid lands on
// every knot within rounding. It is built once: a Curve is immutable,
// so every charger of every controller shares the one table.
var relEfficiency = sync.OnceValue(func() battery.Curve {
	return battery.MustCurve(
		[]float64{0.0, 0.4, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2},
		[]float64{1.0, 1.0, 0.998, 0.995, 0.990, 0.983, 0.973, 0.962, 0.951, 0.940},
	).MustDense(110)
})

// DefaultChargerConfig returns the configuration calibrated to
// Figure 6(c)/(d): ~100% of typical efficiency at light load declining
// to 94% at 2.2 A, current error at or below 0.5%.
func DefaultChargerConfig() ChargerConfig {
	return ChargerConfig{
		MaxCurrentA:       2.5,
		DACSteps:          2048,
		RelEfficiency:     relEfficiency(),
		TypicalEfficiency: 0.92,
		ToleranceFrac:     0.003,
	}
}

// Charger models one charge channel.
type Charger struct {
	cfg ChargerConfig
}

// NewCharger validates the configuration and builds the channel.
func NewCharger(cfg ChargerConfig) (*Charger, error) {
	switch {
	case cfg.MaxCurrentA <= 0:
		return nil, errors.New("circuit: charger needs positive max current")
	case cfg.DACSteps < 2:
		return nil, fmt.Errorf("circuit: charger DAC steps %d too low", cfg.DACSteps)
	case cfg.RelEfficiency.IsZero():
		return nil, errors.New("circuit: charger needs an efficiency curve")
	case cfg.TypicalEfficiency <= 0 || cfg.TypicalEfficiency > 1:
		return nil, fmt.Errorf("circuit: typical efficiency %g out of range", cfg.TypicalEfficiency)
	case cfg.ToleranceFrac < 0 || cfg.ToleranceFrac > 0.05:
		return nil, fmt.Errorf("circuit: tolerance %g out of range", cfg.ToleranceFrac)
	}
	return &Charger{cfg: cfg}, nil
}

// RelativeEfficiency returns efficiency at the given charge current as
// a fraction of the chip's typical efficiency (Figure 6(c)).
func (c *Charger) RelativeEfficiency(currentA float64) float64 {
	return c.cfg.RelEfficiency.At(math.Abs(currentA))
}

// Efficiency returns the absolute conversion efficiency at the given
// charge current.
func (c *Charger) Efficiency(currentA float64) float64 {
	return c.cfg.TypicalEfficiency * c.RelativeEfficiency(currentA)
}

// RealizedCurrent returns the current the channel actually drives for a
// commanded setting: DAC-quantized and perturbed by the deterministic
// sense tolerance, clamped to full scale (Figure 6(d)).
func (c *Charger) RealizedCurrent(setA float64) (float64, error) {
	if setA < 0 {
		return 0, fmt.Errorf("circuit: negative charge current %g", setA)
	}
	if setA > c.cfg.MaxCurrentA {
		setA = c.cfg.MaxCurrentA
	}
	code := math.Round(setA / c.cfg.MaxCurrentA * float64(c.cfg.DACSteps))
	q := code / float64(c.cfg.DACSteps) * c.cfg.MaxCurrentA
	q *= 1 + c.cfg.ToleranceFrac*jitter(uint64(code)*0x9e3779b97f4a7c15+7)
	if q < 0 {
		q = 0
	}
	return q, nil
}

// MaxCurrent returns the channel's full-scale current.
func (c *Charger) MaxCurrent() float64 { return c.cfg.MaxCurrentA }

// TransferEfficiency returns the end-to-end efficiency of charging one
// battery from another: the source channel runs in reverse buck mode
// and the destination channel in buck mode, so both conversions apply
// (Section 3.2.2 — this double conversion is why charging the internal
// battery from the keyboard battery wastes energy in Section 5.3).
func TransferEfficiency(src, dst *Charger, currentA float64) float64 {
	return src.Efficiency(currentA) * dst.Efficiency(currentA)
}

// ChargeProfile is a CC/trickle charging profile (Section 2.2): constant
// current up to a state-of-charge threshold, then a reduced trickle
// current. The microcontroller stores several and the OS selects one.
type ChargeProfile struct {
	// Name identifies the profile in the PMIC profile table.
	Name string
	// CRate is the constant-current phase rate in C.
	CRate float64
	// TrickleCRate applies above ThresholdSoC.
	TrickleCRate float64
	// ThresholdSoC is where the profile switches to trickle.
	ThresholdSoC float64
	// CVVoltage, when positive, is the constant-voltage ceiling: the
	// charger tapers current so the cell terminal voltage never
	// exceeds it (the CV phase of a CC-CV profile). Zero disables it.
	CVVoltage float64
}

// Validate checks profile sanity.
func (p ChargeProfile) Validate() error {
	switch {
	case p.Name == "":
		return errors.New("circuit: charge profile needs a name")
	case p.CRate <= 0:
		return fmt.Errorf("circuit: profile %s: CRate must be positive", p.Name)
	case p.TrickleCRate <= 0 || p.TrickleCRate > p.CRate:
		return fmt.Errorf("circuit: profile %s: trickle rate must be in (0, CRate]", p.Name)
	case p.ThresholdSoC <= 0 || p.ThresholdSoC > 1:
		return fmt.Errorf("circuit: profile %s: threshold must be in (0,1]", p.Name)
	case p.CVVoltage < 0:
		return fmt.Errorf("circuit: profile %s: negative CV voltage", p.Name)
	}
	return nil
}

// RateAt returns the charge C-rate the profile commands at the given
// state of charge.
func (p ChargeProfile) RateAt(soc float64) float64 {
	if soc >= p.ThresholdSoC {
		return p.TrickleCRate
	}
	return p.CRate
}

// StandardProfiles returns the profile table burned into the PMIC:
// gentle (longevity), standard, and fast (paper Section 3.2.2 requires
// multiple selectable profiles per regulator).
func StandardProfiles() []ChargeProfile {
	return []ChargeProfile{
		{Name: "gentle", CRate: 0.3, TrickleCRate: 0.05, ThresholdSoC: 0.8, CVVoltage: 4.20},
		{Name: "standard", CRate: 0.7, TrickleCRate: 0.1, ThresholdSoC: 0.8, CVVoltage: 4.20},
		{Name: "fast", CRate: 2.0, TrickleCRate: 0.2, ThresholdSoC: 0.8, CVVoltage: 4.20},
	}
}

// ValidateRatios checks that a ratio vector is non-negative and sums to
// one within tolerance (the SDB API contract of Section 3.3).
func ValidateRatios(ratios []float64) error {
	if len(ratios) == 0 {
		return errors.New("circuit: empty ratio vector")
	}
	var sum float64
	for i, r := range ratios {
		if math.IsNaN(r) || r < 0 {
			return fmt.Errorf("circuit: ratio %d is %g; ratios must be non-negative", i, r)
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("circuit: ratios sum to %g, want 1", sum)
	}
	return nil
}

// jitter maps a seed to a deterministic value in [-1, 1] — the
// reproducible stand-in for per-channel component tolerance.
func jitter(seed uint64) float64 {
	// xorshift64*
	x := seed + 0x2545f4914f6cdd1d
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	x *= 0x2545f4914f6cdd1d
	return float64(x>>11)/float64(1<<53)*2 - 1
}
