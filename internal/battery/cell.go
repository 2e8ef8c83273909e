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

// Cell is a stateful cell instance built from Params. Cells are not
// safe for concurrent use; the emulator steps them from one goroutine.
type Cell struct {
	p Params

	soc      float64 // state of charge in [0,1] of current capacity
	vrc      float64 // volts across the RC pair (positive during discharge)
	capacity float64 // current effective capacity, coulombs
	r0Mult   float64 // DCIR growth multiplier (>= 1)

	tempC    float64 // cell temperature (thermal model)
	ambientC float64
	// Temperature bookkeeping for aging: time-weighted average over
	// the current cycle window.
	tempSum  float64
	tempTime float64

	cycles    float64 // completed charge cycles (80% cumulative rule)
	cumCharge float64 // coulombs charged since last cycle increment

	// Rate bookkeeping for the aging model: charge-weighted average
	// C-rates within the current cycle window.
	chgRateSum float64 // sum of (C-rate * coulombs) while charging
	chgCharge  float64
	disRateSum float64
	disCharge  float64

	totalIn   float64 // coulombs charged, lifetime
	totalOut  float64 // coulombs discharged, lifetime
	totalLoss float64 // joules dissipated internally, lifetime
}

// New builds a cell at 100% state of charge.
func New(p Params) (*Cell, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Cell{
		p:        p,
		soc:      1,
		capacity: p.CapacityCoulombs(),
		r0Mult:   1,
		tempC:    AmbientC,
		ambientC: AmbientC,
	}, nil
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
func (c *Cell) Params() Params { return c.p }

// Name returns the cell's model name.
func (c *Cell) Name() string { return c.p.Name }

// SoC returns the state of charge in [0,1] relative to the current
// (possibly faded) capacity.
func (c *Cell) SoC() float64 { return c.soc }

// SetSoC forces the state of charge; values are clamped to [0,1]. The
// RC pair voltage is reset. Intended for scenario setup.
func (c *Cell) SetSoC(soc float64) {
	c.soc = clamp01(soc)
	c.vrc = 0
}

// Capacity returns the current effective capacity in coulombs.
func (c *Cell) Capacity() float64 { return c.capacity }

// DesignCapacity returns the as-built capacity in coulombs.
func (c *Cell) DesignCapacity() float64 { return c.p.CapacityCoulombs() }

// CapacityFraction returns current capacity over design capacity — the
// paper's longevity score divided by 100.
func (c *Cell) CapacityFraction() float64 { return c.capacity / c.p.CapacityCoulombs() }

// OCV returns the open circuit potential at the current state of charge.
func (c *Cell) OCV() float64 { return c.p.OCV.At(c.soc) }

// DCIR returns the internal resistance at the current state of charge,
// including aging growth and the temperature coefficient.
func (c *Cell) DCIR() float64 { return c.p.DCIR.At(c.soc) * c.r0Mult * c.tempRFactor() }

// tempRFactor is the temperature multiplier on resistance.
func (c *Cell) tempRFactor() float64 {
	if c.p.ThermalMassJPerK <= 0 || c.p.TempCoeffRPerK == 0 {
		return 1
	}
	f := 1 + c.p.TempCoeffRPerK*(c.tempC-AmbientC)
	switch {
	case f < 0.6:
		return 0.6
	case f > 1.6:
		return 1.6
	}
	return f
}

// Temperature returns the cell temperature in Celsius (ambient when
// the thermal model is disabled).
func (c *Cell) Temperature() float64 { return c.tempC }

// SetAmbient changes the ambient temperature the cell relaxes toward.
func (c *Cell) SetAmbient(tC float64) { c.ambientC = tC }

// thermalDerate scales current capability as temperature approaches
// the protection limit: 1 below MaxTempC-5, 0 at MaxTempC.
func (c *Cell) thermalDerate() float64 {
	if c.p.ThermalMassJPerK <= 0 || c.p.MaxTempC <= 0 {
		return 1
	}
	const band = 5.0
	head := c.p.MaxTempC - c.tempC
	switch {
	case head >= band:
		return 1
	case head <= 0:
		return 0
	}
	return head / band
}

// DCIRSlope returns the derivative of the DCIR-vs-SoC curve at the
// current state of charge (the paper's delta_i), including aging growth.
func (c *Cell) DCIRSlope() float64 { return c.p.DCIR.Slope(c.soc) * c.r0Mult }

// RCVoltage returns the voltage currently across the RC pair.
func (c *Cell) RCVoltage() float64 { return c.vrc }

// CycleCount returns completed charge cycles per the paper's 80%
// cumulative-charge rule.
func (c *Cell) CycleCount() float64 { return c.cycles }

// WearRatio returns lambda_i = cycles / RatedCycles.
func (c *Cell) WearRatio() float64 { return c.cycles / c.p.RatedCycles }

// TotalLoss returns lifetime joules dissipated inside the cell.
func (c *Cell) TotalLoss() float64 { return c.totalLoss }

// TotalThroughput returns lifetime coulombs in and out.
func (c *Cell) TotalThroughput() (in, out float64) { return c.totalIn, c.totalOut }

// Empty reports whether the cell cannot supply meaningful discharge
// current (SoC at the bottom clamp).
func (c *Cell) Empty() bool { return c.soc <= 1e-9 }

// Full reports whether the cell is at 100% state of charge.
func (c *Cell) Full() bool { return c.soc >= 1-1e-9 }

// TerminalVoltage returns the terminal voltage if current i (positive
// discharge) flowed right now.
func (c *Cell) TerminalVoltage(i float64) float64 {
	return c.OCV() - c.vrc - i*c.DCIR()
}

// MaxDischargeCurrent returns the discharge current limit in amperes:
// the C-rate limit against current capacity, derated near the thermal
// protection limit.
func (c *Cell) MaxDischargeCurrent() float64 {
	return c.p.MaxDischargeC * c.capacity / 3600 * c.thermalDerate()
}

// MaxChargeCurrent returns the charge current limit in amperes,
// thermally derated like MaxDischargeCurrent.
func (c *Cell) MaxChargeCurrent() float64 {
	return c.p.MaxChargeC * c.capacity / 3600 * c.thermalDerate()
}

// MaxDischargePower returns the largest terminal power the cell can
// deliver right now, limited both by the rated current and by the
// physics peak (OCV-Vrc)^2 / (4*R0).
func (c *Cell) MaxDischargePower() float64 {
	return c.maxDischargePowerAt(c.OCV(), c.DCIR())
}

// maxDischargePowerAt is MaxDischargePower given the OCV and DCIR at
// the current state (curve lookups are pure, so a caller that already
// holds them passes them in instead of looking them up again).
func (c *Cell) maxDischargePowerAt(ocv, r float64) float64 {
	if c.Empty() {
		return 0
	}
	v := ocv - c.vrc
	if v <= 0 {
		return 0
	}
	peak := v * v / (4 * r)
	iMax := c.MaxDischargeCurrent()
	rated := (v - iMax*r) * iMax
	if rated < 0 {
		return peak
	}
	return math.Min(peak, rated)
}

// MaxChargePower returns the largest terminal power the cell may accept
// right now under its rated charge current.
func (c *Cell) MaxChargePower() float64 {
	return c.maxChargePowerAt(c.OCV(), c.DCIR())
}

// maxChargePowerAt is MaxChargePower given the OCV and DCIR at the
// current state.
func (c *Cell) maxChargePowerAt(ocv, r float64) float64 {
	if c.Full() {
		return 0
	}
	j := c.MaxChargeCurrent()
	v := ocv - c.vrc + j*r
	return v * j
}

// EnergyRemainingJ estimates the chemical energy recoverable from the
// current state of charge down to empty, ignoring resistive losses
// (integral of OCV over remaining charge).
func (c *Cell) EnergyRemainingJ() float64 {
	const steps = 50
	if c.soc <= 0 {
		return 0
	}
	// Curve.At's dense-or-reference branch, taken once for all 50
	// points instead of once per point.
	var sum float64
	if d := c.p.OCV.dense; d != nil {
		for i := 0; i < steps; i++ {
			sum += d.at(c.soc * (float64(i) + 0.5) / steps)
		}
	} else {
		for i := 0; i < steps; i++ {
			sum += c.p.OCV.refAt(c.soc * (float64(i) + 0.5) / steps)
		}
	}
	return sum / steps * c.soc * c.capacity
}

// EnergyRemainingLowerBoundJ returns a cheap O(1) lower bound on
// EnergyRemainingJ: the OCV curve's floor times the remaining charge.
// Every OCV sample the integral averages is at least the curve minimum
// (linear interpolation cannot undershoot its endpoints), so the bound
// holds exactly; the (1-1e-9) margin absorbs floating-point rounding in
// the integral's summation. The firmware's discharge loop uses it to
// skip the 50-point integral whenever the energy cap provably cannot
// bind — everywhere except the bottom few percent of charge.
func (c *Cell) EnergyRemainingLowerBoundJ() float64 {
	if c.soc <= 0 {
		return 0
	}
	return (1 - 1e-9) * c.p.OCV.Min() * c.soc * c.capacity
}

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
	if dt <= 0 {
		return StepResult{TerminalV: c.TerminalVoltage(0)}
	}
	var res StepResult
	c.stepAt(i, dt, c.OCV(), c.DCIR(), &res)
	return res
}

// stepAt is StepCurrent given the OCV and DCIR at the current state,
// writing the outcome into res. The clamp chain and integrate all read
// the state the step starts from, so one lookup serves the whole step:
// the values are the same bits as looking them up at each use.
func (c *Cell) stepAt(i, dt, ocv, r float64, res *StepResult) {
	switch {
	case i > 0: // discharge
		if max := c.MaxDischargeCurrent(); i > max {
			i, res.Clamped = max, true
		}
		// Do not let the step overshoot empty.
		if avail := c.soc * c.capacity; i*dt > avail {
			i, res.Clamped = avail/dt, true
		}
		// Physics: terminal voltage must stay positive.
		if v := ocv - c.vrc; i*r >= v {
			i, res.Clamped = math.Max(0, v/(2*r)), true
		}
	case i < 0: // charge
		j := -i
		if max := c.MaxChargeCurrent(); j > max {
			j, res.Clamped = max, true
		}
		if room := (1 - c.soc) * c.capacity; j*dt > room {
			j, res.Clamped = room/dt, true
		}
		i = -j
	}
	c.integrate(i, dt, ocv, r, res)
}

// StepPower integrates the cell for dt seconds at the requested
// terminal power (positive discharge, negative charge), solving the
// quadratic for the required current. Requests beyond the deliverable
// peak are clamped.
func (c *Cell) StepPower(p, dt float64) StepResult {
	if dt <= 0 || p == 0 {
		return c.StepCurrent(0, dt)
	}
	ocv, r := c.OCV(), c.DCIR()
	v := ocv - c.vrc
	var i float64
	if p > 0 {
		// (v - i r) i = p  =>  r i^2 - v i + p = 0, take the small root.
		disc := v*v - 4*r*p
		if disc < 0 {
			i = v / (2 * r) // peak power point
		} else {
			i = (v - math.Sqrt(disc)) / (2 * r)
		}
	} else {
		// Charging with |p| into the terminals:
		// (v + j r) j = |p|  =>  r j^2 + v j - |p| = 0.
		q := -p
		j := (-v + math.Sqrt(v*v+4*r*q)) / (2 * r)
		i = -j
	}
	var res StepResult
	c.stepAt(i, dt, ocv, r, &res)
	return res
}

// integrate advances state at realized current i for dt seconds, given
// the OCV and DCIR r0 at the state the step starts from, and records
// the step in res.
func (c *Cell) integrate(i, dt, ocv, r0 float64, res *StepResult) {
	vterm := ocv - c.vrc - i*r0

	// RC pair: dVrc/dt = (i - Vrc/Rc) / Cp. Backward Euler keeps the
	// update stable for any dt; with Cp == 0 the pair settles
	// instantly to i*Rc.
	rc, cp := c.p.ConcentrationR, c.p.PlateC
	var heatRC float64
	if rc > 0 {
		if cp > 0 {
			tau := rc * cp
			c.vrc = (c.vrc + dt/tau*i*rc) / (1 + dt/tau)
		} else {
			c.vrc = i * rc
		}
		heatRC = c.vrc * c.vrc / rc
	}

	heat := i*i*r0 + heatRC
	moved := i * dt
	c.soc = clamp01(c.soc - moved/c.capacity)
	c.totalLoss += heat * dt

	// Self-discharge: a slow leak proportional to stored charge. It is
	// modeled only while the cell rests — under any meaningful current
	// the leak is orders of magnitude below the flow, and applying it
	// during charging would make "full" unreachable.
	if c.p.SelfDischargePerMonth > 0 && c.soc > 0 && math.Abs(i) < c.capacity/3600*1e-3 {
		const month = 30 * 24 * 3600.0
		leak := c.soc * c.p.SelfDischargePerMonth * dt / month
		c.soc = clamp01(c.soc - leak)
		c.totalLoss += leak * c.capacity * c.p.OCV.At(c.soc)
	}

	// Thermal integration (backward Euler on the lumped RC thermal
	// model) and cycle-window temperature bookkeeping.
	if c.p.ThermalMassJPerK > 0 {
		tau := c.p.ThermalMassJPerK * c.p.ThermalResKPerW
		c.tempC = (c.tempC + dt/tau*(c.ambientC+heat*c.p.ThermalResKPerW)) / (1 + dt/tau)
		c.tempSum += c.tempC * dt
		c.tempTime += dt
	}

	if i >= 0 {
		c.totalOut += moved
		c.disRateSum += cRate(i, c.capacity) * moved
		c.disCharge += moved
	} else {
		in := -moved
		c.totalIn += in
		c.cumCharge += in
		c.chgRateSum += cRate(-i, c.capacity) * in
		c.chgCharge += in
		if c.cumCharge >= 0.8*c.capacity {
			c.completeCycle()
			res.CycleCompleted = true
		}
	}

	res.Current = i
	res.TerminalV = vterm
	res.PowerW = vterm * i
	res.HeatW = heat
	res.ChargeMoved = moved
}

// completeCycle applies one cycle's worth of aging using the
// charge-weighted average rates observed in the window, then resets the
// window accumulators. Calibrated against Figure 1(b): fade grows
// superlinearly with charge rate.
func (c *Cell) completeCycle() {
	c.cycles++
	c.cumCharge = 0

	fade := 0.0
	if c.p.FadePerCycle > 0 {
		chgRate := c.p.FadeRefC
		if c.chgCharge > 0 {
			chgRate = c.chgRateSum / c.chgCharge
		}
		fade = c.p.FadePerCycle * math.Pow(chgRate/c.p.FadeRefC, c.p.FadeExponent)
		if c.p.DischargeFadeWeight > 0 && c.disCharge > 0 {
			disRate := c.disRateSum / c.disCharge
			fade += c.p.DischargeFadeWeight * c.p.FadePerCycle *
				math.Pow(disRate/c.p.FadeRefC, c.p.FadeExponent)
		}
		// Hot cycles age faster (electrolyte decomposition).
		if c.p.AgingTempFactorPerK > 0 && c.tempTime > 0 {
			avgT := c.tempSum / c.tempTime
			if over := avgT - c.p.AgingTempThresholdC; over > 0 {
				fade *= 1 + c.p.AgingTempFactorPerK*over
			}
		}
	}
	c.tempSum, c.tempTime = 0, 0
	if fade > 0 {
		// State of charge is relative to capacity; preserve absolute
		// charge across the capacity change.
		abs := c.soc * c.capacity
		c.capacity *= 1 - math.Min(fade, 0.5)
		c.soc = clamp01(abs / c.capacity)
	}
	c.r0Mult *= 1 + c.p.ResGrowthPerCycle
	c.chgRateSum, c.chgCharge = 0, 0
	c.disRateSum, c.disCharge = 0, 0
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
// MaxDischargePower and MaxChargePower: the lookups are pure functions
// of unchanged state, so the values are the same bits.
func (c *Cell) Snapshot() Status {
	ocv, r := c.OCV(), c.DCIR()
	return Status{
		Name:             c.p.Name,
		Chem:             c.p.Chem,
		SoC:              c.soc,
		TerminalV:        ocv - c.vrc - 0*r,
		OCV:              ocv,
		DCIR:             r,
		CapacityCoulombs: c.capacity,
		CapacityFraction: c.CapacityFraction(),
		CycleCount:       c.cycles,
		WearRatio:        c.WearRatio(),
		RatedCycles:      c.p.RatedCycles,
		MaxDischargeW:    c.maxDischargePowerAt(ocv, r),
		MaxChargeW:       c.maxChargePowerAt(ocv, r),
		EnergyRemainingJ: c.EnergyRemainingJ(),
		TemperatureC:     c.tempC,
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
	abs := c.soc * c.capacity
	nc := c.capacity * clamp01(retain)
	if min := 0.01 * c.p.CapacityCoulombs(); nc < min {
		nc = min
	}
	c.capacity = nc
	c.soc = clamp01(abs / c.capacity)
}

// Clone returns an independent copy of the cell including aging state.
func (c *Cell) Clone() *Cell {
	dup := *c
	return &dup
}

// Reset returns the cell to fresh, fully charged state at ambient
// temperature, erasing aging.
func (c *Cell) Reset() {
	*c = Cell{
		p: c.p, soc: 1, capacity: c.p.CapacityCoulombs(), r0Mult: 1,
		tempC: AmbientC, ambientC: AmbientC,
	}
}

// cRate converts a current against a capacity in coulombs to a C-rate.
func cRate(i, capacityCoulombs float64) float64 {
	if capacityCoulombs <= 0 {
		return 0
	}
	return i / (capacityCoulombs / 3600)
}

func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}
