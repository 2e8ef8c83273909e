package battery

import (
	"errors"
	"fmt"
	"math"
)

// Params describes a cell model: Thevenin electrical parameters,
// current limits, aging coefficients, and physical properties. The
// electrical model follows the paper's Figure 8(a): an open circuit
// potential OCV(SoC) in series with the internal resistance DCIR(SoC)
// and a parallel RC pair (concentration resistance and plate
// capacitance).
//
// A cell's Params are immutable once New has copied them, so cells of
// one model may share one copy: batch.Engine.Checkout rebinds every
// cell it checks out to its engine's copy of the cell's model (see
// Key and Cell.Share).
type Params struct {
	Name string
	Chem Chemistry

	// CapacityAh is the design capacity in ampere-hours.
	CapacityAh float64
	// OCV maps state of charge in [0,1] to open circuit volts.
	OCV Curve
	// DCIR maps state of charge in [0,1] to fresh internal resistance
	// in ohms.
	DCIR Curve
	// ConcentrationR and PlateC form the parallel RC pair. Both are
	// fixed for a given cell (paper Section 4.3).
	ConcentrationR float64
	PlateC         float64

	// MaxChargeC and MaxDischargeC are rate limits in C (multiples of
	// capacity per hour).
	MaxChargeC    float64
	MaxDischargeC float64

	// RatedCycles is the tolerable cycle count before capacity drops
	// below the acceptable threshold (the paper's chi_i).
	RatedCycles float64
	// FadePerCycle is the fractional capacity lost per charge cycle at
	// charge rate FadeRefC; fade scales as (rate/FadeRefC)^FadeExponent
	// (calibrated to Figure 1(b)).
	FadePerCycle float64
	FadeRefC     float64
	FadeExponent float64
	// DischargeFadeWeight scales the additional fade contributed by
	// the average discharge rate of the cycle (Table 2: discharge
	// power vs. longevity). Typically well below 1.
	DischargeFadeWeight float64
	// ResGrowthPerCycle is the fractional DCIR growth per cycle.
	ResGrowthPerCycle float64
	// SelfDischargePerMonth is the fraction of stored charge lost per
	// 30 days at rest (typical Li-ion: 2-3%/month).
	SelfDischargePerMonth float64

	// Thermal model (Table 2 lists device temperature among the
	// factors that trigger policy changes). ThermalMassJPerK == 0
	// disables the model (the cell stays at ambient).
	//
	// dT/dt = (internal heat - (T - ambient)/ThermalResKPerW) / ThermalMassJPerK
	ThermalMassJPerK float64
	ThermalResKPerW  float64
	// TempCoeffRPerK is the fractional DCIR change per kelvin away
	// from 25 C (negative for Li-ion: ionic conductivity improves when
	// warm). The multiplier is clamped to [0.6, 1.6].
	TempCoeffRPerK float64
	// AgingTempThresholdC / AgingTempFactorPerK accelerate fade when
	// the cycle's average temperature exceeds the threshold.
	AgingTempThresholdC float64
	AgingTempFactorPerK float64
	// MaxTempC is the thermal-protection limit: current capability
	// derates linearly over the last 5 K below it and reaches zero at
	// the limit.
	MaxTempC float64

	// Physical properties used by the scenario experiments.
	VolumeL      float64
	MassKg       float64
	CostPerWh    float64
	BendRadiusMM float64 // 0 means rigid
	// SwellDensityLoss is the fraction of volumetric energy density
	// lost when the cell is routinely fast charged (Section 5.1: high
	// power-density cells expand under high charge currents).
	SwellDensityLoss float64
}

// Validate reports whether the parameters describe a usable cell.
func (p Params) Validate() error {
	switch {
	case p.Name == "":
		return errors.New("battery: params missing Name")
	case p.CapacityAh <= 0:
		return fmt.Errorf("battery: %s: CapacityAh must be positive, got %g", p.Name, p.CapacityAh)
	case p.OCV.IsZero():
		return fmt.Errorf("battery: %s: missing OCV curve", p.Name)
	case p.DCIR.IsZero():
		return fmt.Errorf("battery: %s: missing DCIR curve", p.Name)
	case p.OCV.Min() <= 0:
		return fmt.Errorf("battery: %s: OCV curve must be positive", p.Name)
	case p.DCIR.Min() <= 0:
		return fmt.Errorf("battery: %s: DCIR curve must be positive", p.Name)
	case p.ConcentrationR < 0 || p.PlateC < 0:
		return fmt.Errorf("battery: %s: negative RC parameters", p.Name)
	case p.MaxChargeC <= 0 || p.MaxDischargeC <= 0:
		return fmt.Errorf("battery: %s: C-rate limits must be positive", p.Name)
	case p.RatedCycles <= 0:
		return fmt.Errorf("battery: %s: RatedCycles must be positive", p.Name)
	case p.FadePerCycle < 0 || p.FadePerCycle >= 1:
		return fmt.Errorf("battery: %s: FadePerCycle out of range: %g", p.Name, p.FadePerCycle)
	case p.FadePerCycle > 0 && p.FadeRefC <= 0:
		return fmt.Errorf("battery: %s: FadeRefC must be positive when FadePerCycle > 0", p.Name)
	case p.SelfDischargePerMonth < 0 || p.SelfDischargePerMonth >= 1:
		return fmt.Errorf("battery: %s: SelfDischargePerMonth %g out of [0,1)", p.Name, p.SelfDischargePerMonth)
	case p.ThermalMassJPerK < 0 || p.ThermalResKPerW < 0:
		return fmt.Errorf("battery: %s: negative thermal parameters", p.Name)
	case p.ThermalMassJPerK > 0 && p.ThermalResKPerW <= 0:
		return fmt.Errorf("battery: %s: thermal model needs a positive thermal resistance", p.Name)
	case p.ThermalMassJPerK > 0 && p.MaxTempC <= AmbientC:
		return fmt.Errorf("battery: %s: MaxTempC %g must exceed ambient %g", p.Name, p.MaxTempC, AmbientC)
	}
	return nil
}

// Key identifies a cell model for sharing: two Params with one Key
// hold the same bits in every field. Floats are compared by their bit
// patterns and each curve by the identity of its sample arrays and
// dense table, never by a deep compare, so a Key costs a few dozen
// words to build whatever the curves hold. Params taken from one
// library entry, or built around one Curve value, share those arrays
// and so share a Key; equal curves built apart do not, which costs only
// a second copy of the model.
type Key struct {
	name      string
	chem      Chemistry
	ocv, dcir curveKey
	nums      [23]uint64
}

// curveKey is a Curve's identity: its fields, with each slice as its
// first element's address and its length.
type curveKey struct {
	xs, ys *float64
	nx, ny int
	min    uint64
	dense  *denseTable
}

func (c *Curve) key() curveKey {
	k := curveKey{nx: len(c.xs), ny: len(c.ys), min: math.Float64bits(c.min), dense: c.dense}
	if len(c.xs) > 0 {
		k.xs = &c.xs[0]
	}
	if len(c.ys) > 0 {
		k.ys = &c.ys[0]
	}
	return k
}

// Key returns p's model key, over every field of p.
func (p *Params) Key() Key {
	b := math.Float64bits
	return Key{
		name: p.Name, chem: p.Chem,
		ocv: p.OCV.key(), dcir: p.DCIR.key(),
		nums: [...]uint64{
			b(p.CapacityAh), b(p.ConcentrationR), b(p.PlateC),
			b(p.MaxChargeC), b(p.MaxDischargeC),
			b(p.RatedCycles), b(p.FadePerCycle), b(p.FadeRefC), b(p.FadeExponent),
			b(p.DischargeFadeWeight), b(p.ResGrowthPerCycle), b(p.SelfDischargePerMonth),
			b(p.ThermalMassJPerK), b(p.ThermalResKPerW), b(p.TempCoeffRPerK),
			b(p.AgingTempThresholdC), b(p.AgingTempFactorPerK), b(p.MaxTempC),
			b(p.VolumeL), b(p.MassKg), b(p.CostPerWh), b(p.BendRadiusMM), b(p.SwellDensityLoss),
		},
	}
}

// AmbientC is the default ambient temperature.
const AmbientC = 25.0

// CapacityCoulombs returns the design capacity in coulombs.
func (p Params) CapacityCoulombs() float64 { return p.CapacityAh * 3600 }

// NominalVoltage returns the OCV at 50% state of charge.
func (p Params) NominalVoltage() float64 { return p.OCV.At(0.5) }

// EnergyWh returns the approximate design energy in watt-hours,
// integrating OCV over state of charge.
func (p Params) EnergyWh() float64 {
	const steps = 100
	var sum float64
	for i := 0; i < steps; i++ {
		soc := (float64(i) + 0.5) / steps
		sum += p.OCV.At(soc)
	}
	return sum / steps * p.CapacityAh
}

// VolumetricDensityWhPerL returns energy density in Wh/l. If swell is
// true the fast-charge swelling penalty is applied.
func (p Params) VolumetricDensityWhPerL(swell bool) float64 {
	if p.VolumeL <= 0 {
		return 0
	}
	d := p.EnergyWh() / p.VolumeL
	if swell {
		d *= 1 - p.SwellDensityLoss
	}
	return d
}

// Cell is a stateful cell instance built from Params: its model's
// parameters, by pointer and possibly shared with other cells of the
// model, plus one CellState, stepped through CellState's kernel. Cells
// are not safe for concurrent use; the emulator steps them from one
// goroutine.
type Cell struct {
	p *Params
	s CellState
	// _ pads a Cell to 192 B, three cache lines. The allocator places
	// 192 B objects on line boundaries, so cells stepped in parallel by
	// different goroutines never write one line; at 144 B, neighbouring
	// cells did, and parallel sweeps of private cells slowed.
	_ [48]byte
}

// New builds a cell at 100% state of charge. The cell keeps its own
// copy of p until Share points it at an equal model's.
func New(p Params) (*Cell, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Cell{p: &p, s: freshState(&p)}, nil
}

// MustNew is New, panicking on invalid parameters. For tests and the
// static cell library.
func MustNew(p Params) *Cell {
	c, err := New(p)
	if err != nil {
		panic(err)
	}
	return c
}

// Params returns a copy of the cell's parameters.
func (c *Cell) Params() Params { return *c.p }

// Model returns the cell's parameters without copying them. They may
// be shared with other cells of the same model, so callers read them
// and never write through the pointer.
func (c *Cell) Model() *Params { return c.p }

// Share points the cell at m, another copy of the cell's own model, so
// that every cell of one model can hold a single copy of its
// parameters. It panics unless m has the cell's Key: sharing changes
// no bit of what the cell computes.
func (c *Cell) Share(m *Params) {
	if m != c.p && m.Key() != c.p.Key() {
		panic(fmt.Sprintf("battery: cell %q cannot share the parameters of another model %q", c.p.Name, m.Name))
	}
	c.p = m
}

// Name returns the cell's model name.
func (c *Cell) Name() string { return c.p.Name }

// SoC returns the state of charge in [0,1] relative to the current
// (possibly faded) capacity.
func (c *Cell) SoC() float64 { return c.s.SoC }

// SetSoC forces the state of charge; values are clamped to [0,1]. The
// RC pair voltage is reset. Intended for scenario setup.
func (c *Cell) SetSoC(soc float64) {
	c.s.SoC = clamp01(soc)
	c.s.VRC = 0
}

// Capacity returns the current effective capacity in coulombs.
func (c *Cell) Capacity() float64 { return c.s.Capacity }

// DesignCapacity returns the as-built capacity in coulombs.
func (c *Cell) DesignCapacity() float64 { return c.p.CapacityCoulombs() }

// CapacityFraction returns current capacity over design capacity — the
// paper's longevity score divided by 100.
func (c *Cell) CapacityFraction() float64 { return c.s.Capacity / c.p.CapacityCoulombs() }

// OCV returns the open circuit potential at the current state of charge.
func (c *Cell) OCV() float64 { return c.p.OCV.At(c.s.SoC) }

// DCIR returns the internal resistance at the current state of charge,
// including aging growth and the temperature coefficient.
func (c *Cell) DCIR() float64 {
	return c.p.DCIR.At(c.s.SoC) * c.s.R0Mult * tempRFactor(c.p, c.s.TempC)
}

// Temperature returns the cell temperature in Celsius (ambient when
// the thermal model is disabled).
func (c *Cell) Temperature() float64 { return c.s.TempC }

// SetAmbient changes the ambient temperature the cell relaxes toward.
func (c *Cell) SetAmbient(tC float64) { c.s.AmbientC = tC }

// DCIRSlope returns the derivative of the DCIR-vs-SoC curve at the
// current state of charge (the paper's delta_i), including aging growth.
func (c *Cell) DCIRSlope() float64 { return c.p.DCIR.Slope(c.s.SoC) * c.s.R0Mult }

// RCVoltage returns the voltage currently across the RC pair.
func (c *Cell) RCVoltage() float64 { return c.s.VRC }

// CycleCount returns completed charge cycles per the paper's 80%
// cumulative-charge rule.
func (c *Cell) CycleCount() float64 { return c.s.Cycles }

// WearRatio returns lambda_i = cycles / RatedCycles.
func (c *Cell) WearRatio() float64 { return c.s.Cycles / c.p.RatedCycles }

// TotalLoss returns lifetime joules dissipated inside the cell.
func (c *Cell) TotalLoss() float64 { return c.s.TotalLoss }

// TotalThroughput returns lifetime coulombs in and out.
func (c *Cell) TotalThroughput() (in, out float64) { return c.s.TotalIn, c.s.TotalOut }

// Empty reports whether the cell cannot supply meaningful discharge
// current (SoC at the bottom clamp).
func (c *Cell) Empty() bool { return c.s.Empty() }

// Full reports whether the cell is at 100% state of charge.
func (c *Cell) Full() bool { return c.s.Full() }

// TerminalVoltage returns the terminal voltage if current i (positive
// discharge) flowed right now.
func (c *Cell) TerminalVoltage(i float64) float64 {
	return c.OCV() - c.s.VRC - i*c.DCIR()
}

// MaxChargeCurrent returns the charge current limit in amperes: the
// C-rate limit against current capacity, derated near the thermal
// protection limit.
func (c *Cell) MaxChargeCurrent() float64 {
	return c.p.MaxChargeC * c.s.Capacity / 3600 * thermalDerate(c.p, c.s.TempC)
}

// MaxDischargePower returns the largest terminal power the cell can
// deliver right now, limited both by the rated current and by the
// physics peak (OCV-Vrc)^2 / (4*R0).
func (c *Cell) MaxDischargePower() float64 {
	ocv, r, derate := c.s.Entry(c.p)
	return c.s.MaxDischargePowerAt(c.p, ocv, r, derate)
}

// maxChargePowerAt returns the largest terminal power the cell may
// accept right now under its rated charge current, given the OCV and
// DCIR at the current state.
func (c *Cell) maxChargePowerAt(ocv, r float64) float64 {
	if c.Full() {
		return 0
	}
	j := c.MaxChargeCurrent()
	v := ocv - c.s.VRC + j*r
	return v * j
}

// EnergyRemainingJ estimates the chemical energy recoverable from the
// current state of charge down to empty, ignoring resistive losses
// (integral of OCV over remaining charge).
func (c *Cell) EnergyRemainingJ() float64 { return c.s.EnergyRemainingJ(c.p) }

// EnergyRemainingLowerBoundJ returns a cheap O(1) lower bound on
// EnergyRemainingJ (see CellState.EnergyRemainingLowerBoundJ).
func (c *Cell) EnergyRemainingLowerBoundJ() float64 { return c.s.EnergyRemainingLowerBoundJ(c.p) }

// StepResult reports what happened during one integration step.
type StepResult struct {
	// Current is the realized cell current (positive discharge).
	Current float64
	// TerminalV is the terminal voltage during the step.
	TerminalV float64
	// PowerW is the realized terminal power (positive = delivered to
	// the load, negative = absorbed while charging).
	PowerW float64
	// HeatW is the internal dissipation rate during the step.
	HeatW float64
	// ChargeMoved is coulombs moved (positive discharge).
	ChargeMoved float64
	// Clamped reports that the request exceeded a limit (rate, physics,
	// or an empty/full cell) and was reduced.
	Clamped bool
	// CycleCompleted reports that this step crossed the cumulative 80%
	// charge threshold and incremented the cycle count.
	CycleCompleted bool
}

// StepCurrent integrates the cell for dt seconds at the requested
// current (positive discharge, negative charge). The current is clamped
// to rate limits and to what the state of charge allows; the realized
// values are reported in the result.
func (c *Cell) StepCurrent(i, dt float64) StepResult {
	var res StepResult
	c.s.StepCurrent(c.p, i, dt, &res)
	return res
}

// StepPower integrates the cell for dt seconds at the requested
// terminal power (positive discharge, negative charge), solving the
// quadratic for the required current. Requests beyond the deliverable
// peak are clamped.
func (c *Cell) StepPower(p, dt float64) StepResult {
	if dt <= 0 {
		return c.StepCurrent(0, dt)
	}
	var res StepResult
	ocv, r, derate := c.s.Entry(c.p)
	c.s.StepPowerAt(c.p, ocv, r, derate, p, dt, &res)
	return res
}

// Status is a point-in-time snapshot of externally visible cell state,
// mirroring what the paper's QueryBatteryStatus returns per battery.
type Status struct {
	Name             string
	Chem             Chemistry
	SoC              float64
	TerminalV        float64 // open terminal voltage (no load)
	OCV              float64
	DCIR             float64
	CapacityCoulombs float64
	CapacityFraction float64
	CycleCount       float64
	WearRatio        float64
	RatedCycles      float64
	MaxDischargeW    float64
	MaxChargeW       float64
	EnergyRemainingJ float64
	TemperatureC     float64
	Bendable         bool
}

// Snapshot returns the current externally visible state. It looks OCV
// and DCIR up once and derives the terminal voltage and both power
// capabilities from them with the expressions of TerminalVoltage(0),
// MaxDischargePower and maxChargePowerAt: the lookups are pure functions
// of unchanged state, so the values are the same bits.
func (c *Cell) Snapshot() Status {
	ocv, r, derate := c.s.Entry(c.p)
	return Status{
		Name:             c.p.Name,
		Chem:             c.p.Chem,
		SoC:              c.s.SoC,
		TerminalV:        ocv - c.s.VRC - 0*r,
		OCV:              ocv,
		DCIR:             r,
		CapacityCoulombs: c.s.Capacity,
		CapacityFraction: c.CapacityFraction(),
		CycleCount:       c.s.Cycles,
		WearRatio:        c.WearRatio(),
		RatedCycles:      c.p.RatedCycles,
		MaxDischargeW:    c.s.MaxDischargePowerAt(c.p, ocv, r, derate),
		MaxChargeW:       c.maxChargePowerAt(ocv, r),
		EnergyRemainingJ: c.EnergyRemainingJ(),
		TemperatureC:     c.s.TempC,
		Bendable:         c.p.Chem.Bendable(),
	}
}

// InjectCapacityFade applies a sudden capacity loss: the cell keeps
// retain (clamped to [0,1]) of its current capacity, modeling abrupt
// hardware degradation (internal short, crushed electrode) rather than
// gradual cycle aging. Absolute stored charge is preserved, so state of
// charge rises when capacity shrinks, exactly as in completeCycle.
// Capacity never drops below 1% of design so the model stays solvable.
func (c *Cell) InjectCapacityFade(retain float64) {
	abs := c.s.SoC * c.s.Capacity
	nc := c.s.Capacity * clamp01(retain)
	if min := 0.01 * c.p.CapacityCoulombs(); nc < min {
		nc = min
	}
	c.s.Capacity = nc
	c.s.SoC = clamp01(abs / c.s.Capacity)
}

// Clone returns an independent copy of the cell including aging state.
func (c *Cell) Clone() *Cell {
	dup := *c
	return &dup
}

// Reset returns the cell to fresh, fully charged state at ambient
// temperature, erasing aging.
func (c *Cell) Reset() { c.s = freshState(c.p) }
