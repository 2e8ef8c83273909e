package battery

import (
	"math"
	"sync/atomic"
)

// CellState is the complete mutable state of a cell, and the methods
// below are the cell physics over it: a Cell is its Params plus one
// CellState, and the batch engine (internal/battery/batch) holds many
// CellStates in one contiguous slice and steps each through the same
// methods, so both execute one kernel and agree bit for bit.
//
// Params are not part of the state: they are immutable after New and
// every method takes them by pointer.
type CellState struct {
	SoC      float64 // state of charge in [0,1] of current capacity
	VRC      float64 // volts across the RC pair (positive during discharge)
	Capacity float64 // current effective capacity, coulombs
	R0Mult   float64 // DCIR growth multiplier (>= 1)

	TempC    float64 // cell temperature (thermal model)
	AmbientC float64
	// Temperature bookkeeping for aging: time-weighted average over
	// the current cycle window.
	TempSum  float64
	TempTime float64

	Cycles    float64 // completed charge cycles (80% cumulative rule)
	CumCharge float64 // coulombs charged since last cycle increment

	// Rate bookkeeping for the aging model: charge-weighted average
	// C-rates within the current cycle window.
	ChgRateSum float64 // sum of (C-rate * coulombs) while charging
	ChgCharge  float64
	DisRateSum float64
	DisCharge  float64

	TotalIn   float64 // coulombs charged, lifetime
	TotalOut  float64 // coulombs discharged, lifetime
	TotalLoss float64 // joules dissipated internally, lifetime
}

// freshState is a new cell's state: full, unaged, at ambient.
func freshState(p *Params) CellState {
	return CellState{SoC: 1, Capacity: p.CapacityCoulombs(), R0Mult: 1, TempC: AmbientC, AmbientC: AmbientC}
}

// Empty reports whether s cannot supply meaningful discharge current
// (SoC at the bottom clamp).
func (s *CellState) Empty() bool { return s.SoC <= 1e-9 }

// Full reports whether s is at 100% state of charge.
func (s *CellState) Full() bool { return s.SoC >= 1-1e-9 }

// Entry returns the step-entry quantities at s: the open circuit
// potential, the effective DCIR (aging growth and temperature
// coefficient included) and the thermal derating factor. They are
// pure functions of s, so one Entry serves every capability query and
// the step that follow at the same state. The dense branch is spelled
// out so the table lookup inlines here rather than calling Curve.At.
func (s *CellState) Entry(p *Params) (ocv, dcir, derate float64) {
	if d := p.OCV.dense; d != nil {
		ocv = d.at(s.SoC)
	} else {
		ocv = p.OCV.refAt(s.SoC)
	}
	if d := p.DCIR.dense; d != nil {
		dcir = d.at(s.SoC)
	} else {
		dcir = p.DCIR.refAt(s.SoC)
	}
	dcir = dcir * s.R0Mult * tempRFactor(p, s.TempC)
	return ocv, dcir, thermalDerate(p, s.TempC)
}

// tempRFactor is the temperature multiplier on resistance.
func tempRFactor(p *Params, tempC float64) float64 {
	if p.ThermalMassJPerK <= 0 || p.TempCoeffRPerK == 0 {
		return 1
	}
	f := 1 + p.TempCoeffRPerK*(tempC-AmbientC)
	switch {
	case f < 0.6:
		return 0.6
	case f > 1.6:
		return 1.6
	}
	return f
}

// thermalDerate scales current capability as temperature approaches
// the protection limit: 1 below MaxTempC-5, 0 at MaxTempC.
func thermalDerate(p *Params, tempC float64) float64 {
	if p.ThermalMassJPerK <= 0 || p.MaxTempC <= 0 {
		return 1
	}
	const band = 5.0
	head := p.MaxTempC - tempC
	switch {
	case head >= band:
		return 1
	case head <= 0:
		return 0
	}
	return head / band
}

// MaxDischargePowerAt returns the largest terminal power the cell can
// deliver at s, given the entry quantities from Entry: the rated
// current's power or the physics peak (OCV-Vrc)^2 / (4*R0), whichever
// is lower.
func (s *CellState) MaxDischargePowerAt(p *Params, ocv, dcir, derate float64) float64 {
	if s.Empty() {
		return 0
	}
	v := ocv - s.VRC
	if v <= 0 {
		return 0
	}
	peak := v * v / (4 * dcir)
	iMax := p.MaxDischargeC * s.Capacity / 3600 * derate
	rated := (v - iMax*dcir) * iMax
	if rated < 0 {
		return peak
	}
	// Branch min, value-identical to math.Min here: both operands are
	// finite (v > 0, dcir > 0) and non-negative, so no NaN edge exists.
	if rated < peak {
		return rated
	}
	return peak
}

// EnergyRemainingJ estimates the chemical energy recoverable from s
// down to empty, ignoring resistive losses (integral of OCV over
// remaining charge, 50 points).
func (s *CellState) EnergyRemainingJ(p *Params) float64 {
	const steps = 50
	if s.SoC <= 0 {
		return 0
	}
	// Curve.At's dense-or-reference branch, taken once for all 50
	// points instead of once per point.
	var sum float64
	if d := p.OCV.dense; d != nil {
		for i := 0; i < steps; i++ {
			sum += d.at(s.SoC * (float64(i) + 0.5) / steps)
		}
	} else {
		for i := 0; i < steps; i++ {
			sum += p.OCV.refAt(s.SoC * (float64(i) + 0.5) / steps)
		}
	}
	return sum / steps * s.SoC * s.Capacity
}

// EnergyRemainingLowerBoundJ returns a cheap O(1) lower bound on
// EnergyRemainingJ: the OCV curve's floor times the remaining charge.
// Every OCV sample the integral averages is at least the curve minimum
// (linear interpolation cannot undershoot its endpoints), so the bound
// holds exactly; the (1-1e-9) margin absorbs floating-point rounding in
// the integral's summation. The firmware's discharge loop uses it to
// skip the 50-point integral whenever the energy cap provably cannot
// bind — everywhere except the bottom few percent of charge.
func (s *CellState) EnergyRemainingLowerBoundJ(p *Params) float64 {
	if s.SoC <= 0 {
		return 0
	}
	return (1 - 1e-9) * p.OCV.Min() * s.SoC * s.Capacity
}

// StepCurrent integrates s for dt seconds at the requested current i
// (positive discharge, negative charge) and records the step in res,
// which the caller has zeroed. A non-positive dt only reports the
// open terminal voltage.
func (s *CellState) StepCurrent(p *Params, i, dt float64, res *StepResult) {
	ocv, dcir, derate := s.Entry(p)
	if dt <= 0 {
		res.TerminalV = ocv - s.VRC - 0*dcir
		return
	}
	s.StepAt(p, ocv, dcir, derate, i, dt, res)
}

// StepPowerAt integrates s for dt > 0 seconds at the requested
// terminal power pw (positive discharge, negative charge), given the
// entry quantities from Entry, solving the quadratic for the current.
// Requests beyond the deliverable peak are clamped.
func (s *CellState) StepPowerAt(p *Params, ocv, dcir, derate, pw, dt float64, res *StepResult) {
	var i float64
	if pw != 0 {
		v := ocv - s.VRC
		if pw > 0 {
			// (v - i r) i = pw  =>  r i^2 - v i + pw = 0, take the small root.
			disc := v*v - 4*dcir*pw
			if disc < 0 {
				i = v / (2 * dcir) // peak power point
			} else {
				i = (v - math.Sqrt(disc)) / (2 * dcir)
			}
		} else {
			// Charging with |pw| into the terminals:
			// (v + j r) j = |pw|  =>  r j^2 + v j - |pw| = 0.
			q := -pw
			j := (-v + math.Sqrt(v*v+4*dcir*q)) / (2 * dcir)
			i = -j
		}
	}
	s.StepAt(p, ocv, dcir, derate, i, dt, res)
}

// StepAt integrates s for dt > 0 seconds at the requested current i,
// given the entry quantities from Entry, and records the step in res.
// The clamp chain and the integration all read the state the step
// starts from, so one Entry serves the whole step.
func (s *CellState) StepAt(p *Params, ocv, dcir, derate, i, dt float64, res *StepResult) {
	switch {
	case i > 0: // discharge
		if max := p.MaxDischargeC * s.Capacity / 3600 * derate; i > max {
			i, res.Clamped = max, true
		}
		// Do not let the step overshoot empty.
		if avail := s.SoC * s.Capacity; i*dt > avail {
			i, res.Clamped = avail/dt, true
		}
		// Physics: terminal voltage must stay positive.
		if v := ocv - s.VRC; i*dcir >= v {
			i, res.Clamped = math.Max(0, v/(2*dcir)), true
		}
	case i < 0: // charge
		j := -i
		if max := p.MaxChargeC * s.Capacity / 3600 * derate; j > max {
			j, res.Clamped = max, true
		}
		if room := (1 - s.SoC) * s.Capacity; j*dt > room {
			j, res.Clamped = room/dt, true
		}
		i = -j
	}

	vterm := ocv - s.VRC - i*dcir

	// RC pair: dVrc/dt = (i - Vrc/Rc) / Cp. Backward Euler keeps the
	// update stable for any dt; with Cp == 0 the pair settles
	// instantly to i*Rc.
	rc, cp := p.ConcentrationR, p.PlateC
	var heatRC float64
	if rc > 0 {
		if cp > 0 {
			tau := rc * cp
			s.VRC = (s.VRC + dt/tau*i*rc) / (1 + dt/tau)
		} else {
			s.VRC = i * rc
		}
		heatRC = s.VRC * s.VRC / rc
	}

	heat := i*i*dcir + heatRC
	moved := i * dt
	s.SoC = clamp01(s.SoC - moved/s.Capacity)
	s.TotalLoss += heat * dt

	// Self-discharge: a slow leak proportional to stored charge. It is
	// modeled only while the cell rests — under any meaningful current
	// the leak is orders of magnitude below the flow, and applying it
	// during charging would make "full" unreachable.
	if p.SelfDischargePerMonth > 0 && s.SoC > 0 && math.Abs(i) < s.Capacity/3600*1e-3 {
		const month = 30 * 24 * 3600.0
		leak := s.SoC * p.SelfDischargePerMonth * dt / month
		s.SoC = clamp01(s.SoC - leak)
		s.TotalLoss += leak * s.Capacity * p.OCV.At(s.SoC)
	}

	// Thermal integration (backward Euler on the lumped RC thermal
	// model) and cycle-window temperature bookkeeping.
	if p.ThermalMassJPerK > 0 {
		tau := p.ThermalMassJPerK * p.ThermalResKPerW
		s.TempC = (s.TempC + dt/tau*(s.AmbientC+heat*p.ThermalResKPerW)) / (1 + dt/tau)
		s.TempSum += s.TempC * dt
		s.TempTime += dt
	}

	if i >= 0 {
		s.TotalOut += moved
		s.DisRateSum += cRate(i, s.Capacity) * moved
		s.DisCharge += moved
	} else {
		in := -moved
		s.TotalIn += in
		s.CumCharge += in
		s.ChgRateSum += cRate(-i, s.Capacity) * in
		s.ChgCharge += in
		if s.CumCharge >= 0.8*s.Capacity {
			s.completeCycle(p)
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
func (s *CellState) completeCycle(p *Params) {
	s.Cycles++
	s.CumCharge = 0

	fade := 0.0
	if p.FadePerCycle > 0 {
		chgRate := p.FadeRefC
		if s.ChgCharge > 0 {
			chgRate = s.ChgRateSum / s.ChgCharge
		}
		fade = p.FadePerCycle * math.Pow(chgRate/p.FadeRefC, p.FadeExponent)
		if p.DischargeFadeWeight > 0 && s.DisCharge > 0 {
			disRate := s.DisRateSum / s.DisCharge
			fade += p.DischargeFadeWeight * p.FadePerCycle *
				math.Pow(disRate/p.FadeRefC, p.FadeExponent)
		}
		// Hot cycles age faster (electrolyte decomposition).
		if p.AgingTempFactorPerK > 0 && s.TempTime > 0 {
			avgT := s.TempSum / s.TempTime
			if over := avgT - p.AgingTempThresholdC; over > 0 {
				fade *= 1 + p.AgingTempFactorPerK*over
			}
		}
	}
	s.TempSum, s.TempTime = 0, 0
	if fade > 0 {
		// State of charge is relative to capacity; preserve absolute
		// charge across the capacity change.
		abs := s.SoC * s.Capacity
		s.Capacity *= 1 - math.Min(fade, 0.5)
		s.SoC = clamp01(abs / s.Capacity)
	}
	s.R0Mult *= 1 + p.ResGrowthPerCycle
	s.ChgRateSum, s.ChgCharge = 0, 0
	s.DisRateSum, s.DisCharge = 0, 0
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

// ExportState snapshots the cell's mutable state.
func (c *Cell) ExportState() CellState { return c.s }

// ImportState overwrites the cell's mutable state with a snapshot
// previously produced by ExportState (possibly advanced by the batch
// engine). No validation: the engine and the cell step through one
// kernel, so any state the engine produces is a state the cell could
// have reached.
func (c *Cell) ImportState(s CellState) { c.s = s }

// stepsTotal counts cell integration steps across the process for
// drivers that step cells directly (cyclers, thermal sweeps) rather
// than through a firmware.Controller. Drivers accumulate locally and call
// AddSteps once per run, so the hot integration loop carries no atomic.
var stepsTotal atomic.Int64

// AddSteps adds n cell integration steps to the process-wide counter.
// Bulk-reporting entry point for drivers that step cells without a
// controller; the experiment runner samples the counter to report
// steps/second for such workloads.
func AddSteps(n int64) {
	if n > 0 {
		stepsTotal.Add(n)
	}
}

// TotalSteps returns the process-wide count of directly driven cell
// integration steps reported via AddSteps.
func TotalSteps() int64 { return stepsTotal.Load() }
