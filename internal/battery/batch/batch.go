// Package batch is the struct-of-arrays execution engine for the cell
// model: the state of many packs lives in parallel slices (one per
// Cell field) and chemistry model constants — including the dense
// OCV/DCIR curve tables — are shared across every pack that uses the
// same cell model, so stepping thousands of packs is index arithmetic
// over a handful of contiguous arrays instead of a pointer chase per
// cell.
//
// The scalar battery.Cell remains the reference implementation; this
// engine is a transcription of its arithmetic, statement for
// statement, and must produce bit-identical trajectories (the
// differential tests in this package enforce that). Two rules keep
// the transcription honest:
//
//   - Same operations, same order, same inputs. IEEE-754 arithmetic is
//     deterministic, so the only way to diverge is to reassociate,
//     fuse, or skip an operation. Pure-function results (a curve
//     lookup at an unchanged state of charge) may be computed once and
//     reused — that is value reuse, not reordering — which is where
//     the speedup comes from: one OCV and one DCIR lookup per step
//     where the scalar call chain performs about eight.
//   - Curve tables are aliased, never copied. A model is keyed by the
//     identity (&ys[0]) of its dense tables plus its scalar
//     parameters; the tables are immutable after construction (a
//     battery.Curve invariant), so thousands of lanes can read them
//     concurrently without synchronization.
//
// State moves between the two representations with Checkout (cells →
// lanes) and the Sync pair; the engine is the authority only between
// SyncIn and SyncOut, which is how the firmware fast path keeps the
// scalar structs authoritative for every observer outside a batch
// segment.
//
// The engine is not safe for concurrent use; in the fleet each shard
// owns one engine and drives it from its own goroutine.
package batch

import (
	"fmt"
	"math"

	"sdb/internal/battery"
)

// model holds everything immutable about one cell chemistry/model:
// the dense curve tables (aliased from the battery library, never
// copied) and the scalar parameters the step kernel reads.
type model struct {
	ocvYs                       []float64
	ocvLo, ocvHi, ocvInvStep    float64
	dcirYs                      []float64
	dcirLo, dcirHi, dcirInvStep float64
	ocvMin                      float64 // Params.OCV.Min(), hoisted out of the step loop

	concR, plateC    float64
	maxChgC, maxDisC float64
	selfDis          float64
	thMass, thRes    float64
	tempCoeff        float64
	maxTempC         float64

	fadePerCycle, fadeRefC, fadeExp float64
	disFadeWeight, resGrowth        float64
	agingThresh, agingFactor        float64
}

// modelKey identifies a model for deduplication: table identity plus
// the kernel-visible scalars. Two cells built from the same library
// entry share dense tables by pointer, so they collapse to one model.
type modelKey struct {
	ocv, dcir                       *float64
	concR, plateC                   float64
	maxChgC, maxDisC                float64
	selfDis                         float64
	thMass, thRes                   float64
	tempCoeff                       float64
	maxTempC                        float64
	fadePerCycle, fadeRefC, fadeExp float64
	disFadeWeight, resGrowth        float64
	agingThresh, agingFactor        float64
}

// Pack addresses a contiguous lane range inside an Engine: the cells
// of one battery pack, in pack order.
type Pack struct {
	off, n int
}

// N returns the number of cells in the pack.
func (p Pack) N() int { return p.n }

// Engine holds pack state in struct-of-arrays form. Lanes are
// append-only: Checkout grows every array; there is no free list (a
// removed device's lanes idle until the engine is dropped).
type Engine struct {
	models []model
	keys   map[modelKey]int32
	mi     []int32 // model index per lane

	soc, vrc              []float64
	capacity, r0Mult      []float64
	tempC, ambientC       []float64
	tempSum, tempTime     []float64
	cycles, cumCharge     []float64
	chgRateSum, chgCharge []float64
	disRateSum, disCharge []float64
	totalIn, totalOut     []float64
	totalLoss             []float64
}

// New builds an empty engine.
func New() *Engine {
	return &Engine{keys: make(map[modelKey]int32)}
}

// Len returns the number of lanes (cells) checked out so far.
func (e *Engine) Len() int { return len(e.soc) }

// All returns a Pack spanning every lane in the engine — the handle
// bulk kernels use to advance the whole population in one call.
func (e *Engine) All() Pack { return Pack{off: 0, n: len(e.soc)} }

// Checkout registers a pack's cells: each cell's model is resolved
// (deduplicated against every model already registered) and its state
// is copied into fresh lanes. The cells themselves are not retained;
// use SyncIn/SyncOut to move state between representations afterward.
// Cells must carry dense OCV and DCIR curves — the kernel evaluates
// only the uniform-grid form, so a reference-only curve cannot be
// stepped bit-identically and is rejected.
func (e *Engine) Checkout(cells []*battery.Cell) (Pack, error) {
	p := Pack{off: len(e.soc), n: len(cells)}
	for _, c := range cells {
		mi, err := e.modelIndex(c.Params())
		if err != nil {
			return Pack{}, err
		}
		e.mi = append(e.mi, mi)
		s := c.ExportState()
		e.soc = append(e.soc, s.SoC)
		e.vrc = append(e.vrc, s.VRC)
		e.capacity = append(e.capacity, s.Capacity)
		e.r0Mult = append(e.r0Mult, s.R0Mult)
		e.tempC = append(e.tempC, s.TempC)
		e.ambientC = append(e.ambientC, s.AmbientC)
		e.tempSum = append(e.tempSum, s.TempSum)
		e.tempTime = append(e.tempTime, s.TempTime)
		e.cycles = append(e.cycles, s.Cycles)
		e.cumCharge = append(e.cumCharge, s.CumCharge)
		e.chgRateSum = append(e.chgRateSum, s.ChgRateSum)
		e.chgCharge = append(e.chgCharge, s.ChgCharge)
		e.disRateSum = append(e.disRateSum, s.DisRateSum)
		e.disCharge = append(e.disCharge, s.DisCharge)
		e.totalIn = append(e.totalIn, s.TotalIn)
		e.totalOut = append(e.totalOut, s.TotalOut)
		e.totalLoss = append(e.totalLoss, s.TotalLoss)
	}
	return p, nil
}

func (e *Engine) modelIndex(par battery.Params) (int32, error) {
	oys, olo, ohi, ostep := par.OCV.DenseTable()
	dys, dlo, dhi, dstep := par.DCIR.DenseTable()
	if oys == nil || dys == nil {
		return 0, fmt.Errorf("batch: cell %q needs dense OCV and DCIR curves", par.Name)
	}
	k := modelKey{
		ocv: &oys[0], dcir: &dys[0],
		concR: par.ConcentrationR, plateC: par.PlateC,
		maxChgC: par.MaxChargeC, maxDisC: par.MaxDischargeC,
		selfDis: par.SelfDischargePerMonth,
		thMass:  par.ThermalMassJPerK, thRes: par.ThermalResKPerW,
		tempCoeff: par.TempCoeffRPerK, maxTempC: par.MaxTempC,
		fadePerCycle: par.FadePerCycle, fadeRefC: par.FadeRefC, fadeExp: par.FadeExponent,
		disFadeWeight: par.DischargeFadeWeight, resGrowth: par.ResGrowthPerCycle,
		agingThresh: par.AgingTempThresholdC, agingFactor: par.AgingTempFactorPerK,
	}
	if mi, ok := e.keys[k]; ok {
		return mi, nil
	}
	m := model{
		ocvYs: oys, ocvLo: olo, ocvHi: ohi, ocvInvStep: ostep,
		dcirYs: dys, dcirLo: dlo, dcirHi: dhi, dcirInvStep: dstep,
		ocvMin: par.OCV.Min(),
		concR:  k.concR, plateC: k.plateC,
		maxChgC: k.maxChgC, maxDisC: k.maxDisC,
		selfDis: k.selfDis,
		thMass:  k.thMass, thRes: k.thRes,
		tempCoeff: k.tempCoeff, maxTempC: k.maxTempC,
		fadePerCycle: k.fadePerCycle, fadeRefC: k.fadeRefC, fadeExp: k.fadeExp,
		disFadeWeight: k.disFadeWeight, resGrowth: k.resGrowth,
		agingThresh: k.agingThresh, agingFactor: k.agingFactor,
	}
	mi := int32(len(e.models))
	e.models = append(e.models, m)
	e.keys[k] = mi
	return mi, nil
}

// SyncIn refreshes a pack's lanes from its cells — call at the start
// of a batch segment, after any window in which the scalar structs
// were authoritative (commands, fault injection, scenario setup).
func (e *Engine) SyncIn(p Pack, cells []*battery.Cell) {
	for i, c := range cells {
		l := p.off + i
		s := c.ExportState()
		e.soc[l], e.vrc[l] = s.SoC, s.VRC
		e.capacity[l], e.r0Mult[l] = s.Capacity, s.R0Mult
		e.tempC[l], e.ambientC[l] = s.TempC, s.AmbientC
		e.tempSum[l], e.tempTime[l] = s.TempSum, s.TempTime
		e.cycles[l], e.cumCharge[l] = s.Cycles, s.CumCharge
		e.chgRateSum[l], e.chgCharge[l] = s.ChgRateSum, s.ChgCharge
		e.disRateSum[l], e.disCharge[l] = s.DisRateSum, s.DisCharge
		e.totalIn[l], e.totalOut[l], e.totalLoss[l] = s.TotalIn, s.TotalOut, s.TotalLoss
	}
}

// SyncOut writes a pack's lanes back into its cells — call at the end
// of a batch segment, before releasing whatever lock kept observers
// away from the scalar structs.
func (e *Engine) SyncOut(p Pack, cells []*battery.Cell) {
	for i, c := range cells {
		l := p.off + i
		c.ImportState(battery.CellState{
			SoC: e.soc[l], VRC: e.vrc[l],
			Capacity: e.capacity[l], R0Mult: e.r0Mult[l],
			TempC: e.tempC[l], AmbientC: e.ambientC[l],
			TempSum: e.tempSum[l], TempTime: e.tempTime[l],
			Cycles: e.cycles[l], CumCharge: e.cumCharge[l],
			ChgRateSum: e.chgRateSum[l], ChgCharge: e.chgCharge[l],
			DisRateSum: e.disRateSum[l], DisCharge: e.disCharge[l],
			TotalIn: e.totalIn[l], TotalOut: e.totalOut[l], TotalLoss: e.totalLoss[l],
		})
	}
}

// State snapshots lane i as a battery.CellState (the same form
// Cell.ExportState returns), for inspection and differential tests.
func (e *Engine) State(p Pack, i int) battery.CellState {
	l := p.off + i
	return battery.CellState{
		SoC: e.soc[l], VRC: e.vrc[l],
		Capacity: e.capacity[l], R0Mult: e.r0Mult[l],
		TempC: e.tempC[l], AmbientC: e.ambientC[l],
		TempSum: e.tempSum[l], TempTime: e.tempTime[l],
		Cycles: e.cycles[l], CumCharge: e.cumCharge[l],
		ChgRateSum: e.chgRateSum[l], ChgCharge: e.chgCharge[l],
		DisRateSum: e.disRateSum[l], DisCharge: e.disCharge[l],
		TotalIn: e.totalIn[l], TotalOut: e.totalOut[l], TotalLoss: e.totalLoss[l],
	}
}

// SoC returns lane i's state of charge.
func (e *Engine) SoC(p Pack, i int) float64 { return e.soc[p.off+i] }

// Empty mirrors Cell.Empty for lane i.
func (e *Engine) Empty(p Pack, i int) bool { return e.soc[p.off+i] <= 1e-9 }

// Full mirrors Cell.Full for lane i.
func (e *Engine) Full(p Pack, i int) bool { return e.soc[p.off+i] >= 1-1e-9 }

// Capacity returns lane i's current effective capacity in coulombs.
func (e *Engine) Capacity(p Pack, i int) float64 { return e.capacity[p.off+i] }

// TotalLoss returns lane i's lifetime internal dissipation in joules.
func (e *Engine) TotalLoss(p Pack, i int) float64 { return e.totalLoss[p.off+i] }

// Entry computes the step-entry quantities for lane i: the open
// circuit potential and effective DCIR at the current state, and the
// thermal derating factor. They are pure functions of lane state, so
// one Entry call can serve every capability query and the step kernel
// within a single enforcement step — the value reuse that replaces
// the scalar path's repeated lookups.
func (e *Engine) Entry(p Pack, i int) (ocv, dcir, derate float64) {
	l := p.off + i
	m := &e.models[e.mi[l]]
	ocv = m.ocvAt(e.soc[l])
	dcir = m.dcirAt(e.soc[l]) * e.r0Mult[l] * m.tempRFactor(e.tempC[l])
	derate = m.thermalDerate(e.tempC[l])
	return ocv, dcir, derate
}

// TerminalVoltage mirrors Cell.TerminalVoltage for lane i with fresh
// lookups at the lane's current state.
func (e *Engine) TerminalVoltage(p Pack, i int, cur float64) float64 {
	l := p.off + i
	m := &e.models[e.mi[l]]
	ocv := m.ocvAt(e.soc[l])
	dcir := m.dcirAt(e.soc[l]) * e.r0Mult[l] * m.tempRFactor(e.tempC[l])
	return ocv - e.vrc[l] - cur*dcir
}

// TerminalVoltageAt mirrors Cell.TerminalVoltage given the step-entry
// quantities from Entry at the lane's current state.
func (e *Engine) TerminalVoltageAt(p Pack, i int, ocv, dcir, cur float64) float64 {
	return ocv - e.vrc[p.off+i] - cur*dcir
}

// MaxDischargePowerAt mirrors Cell.MaxDischargePower given the
// step-entry quantities from Entry.
func (e *Engine) MaxDischargePowerAt(p Pack, i int, ocv, dcir, derate float64) float64 {
	l := p.off + i
	if e.soc[l] <= 1e-9 {
		return 0
	}
	v := ocv - e.vrc[l]
	if v <= 0 {
		return 0
	}
	peak := v * v / (4 * dcir)
	iMax := e.models[e.mi[l]].maxDisC * e.capacity[l] / 3600 * derate
	rated := (v - iMax*dcir) * iMax
	if rated < 0 {
		return peak
	}
	// Branch min, value-identical to the scalar math.Min here: both
	// operands are finite (v > 0, dcir > 0) and non-negative (rated < 0
	// returned above), so no NaN or signed-zero edge can diverge.
	if rated < peak {
		return rated
	}
	return peak
}

// EnergyRemainingLowerBoundJ mirrors Cell.EnergyRemainingLowerBoundJ.
func (e *Engine) EnergyRemainingLowerBoundJ(p Pack, i int) float64 {
	l := p.off + i
	if e.soc[l] <= 0 {
		return 0
	}
	return (1 - 1e-9) * e.models[e.mi[l]].ocvMin * e.soc[l] * e.capacity[l]
}

// EnergyRemainingJ mirrors Cell.EnergyRemainingJ (the 50-point OCV
// integral over remaining charge).
func (e *Engine) EnergyRemainingJ(p Pack, i int) float64 {
	l := p.off + i
	const steps = 50
	if e.soc[l] <= 0 {
		return 0
	}
	m := &e.models[e.mi[l]]
	var sum float64
	for k := 0; k < steps; k++ {
		soc := e.soc[l] * (float64(k) + 0.5) / steps
		sum += m.ocvAt(soc)
	}
	return sum / steps * e.soc[l] * e.capacity[l]
}

// StepCurrent mirrors Cell.StepCurrent for lane i of the pack.
func (e *Engine) StepCurrent(p Pack, i int, cur, dt float64) battery.StepResult {
	var res battery.StepResult
	l := p.off + i
	m := &e.models[e.mi[l]]
	ocv := m.ocvAt(e.soc[l])
	dcir := m.dcirAt(e.soc[l]) * e.r0Mult[l] * m.tempRFactor(e.tempC[l])
	if dt <= 0 {
		res.TerminalV = ocv - e.vrc[l] - 0*dcir
		return res
	}
	e.step(l, m, ocv, dcir, m.thermalDerate(e.tempC[l]), cur, dt, &res)
	return res
}

// StepPowerAt mirrors Cell.StepPower for lane i given the step-entry
// quantities from Entry. dt must be positive.
func (e *Engine) StepPowerAt(p Pack, i int, ocv, dcir, derate, pw, dt float64) battery.StepResult {
	var res battery.StepResult
	e.stepPower(p.off+i, ocv, dcir, derate, pw, dt, &res)
	return res
}

// StepCurrentAt mirrors Cell.StepCurrent for lane i given the
// step-entry quantities from Entry. dt must be positive.
func (e *Engine) StepCurrentAt(p Pack, i int, ocv, dcir, derate, cur, dt float64) battery.StepResult {
	var res battery.StepResult
	l := p.off + i
	e.step(l, &e.models[e.mi[l]], ocv, dcir, derate, cur, dt, &res)
	return res
}

// StepCurrentBatch advances every lane of the pack by one integration
// step at the requested per-cell currents (positive discharge), the
// bulk kernel behind rollout and fleet stepping: one call, N cells,
// zero allocations. dst receives the per-cell StepResult; dst and
// currents must both have length p.N(). Results are bit-identical to
// calling Cell.StepCurrent on each cell in order.
func (e *Engine) StepCurrentBatch(dst []battery.StepResult, p Pack, currents []float64, dt float64) {
	for i := 0; i < p.n; i++ {
		dst[i] = battery.StepResult{}
		l := p.off + i
		m := &e.models[e.mi[l]]
		ocv := m.ocvAt(e.soc[l])
		dcir := m.dcirAt(e.soc[l]) * e.r0Mult[l] * m.tempRFactor(e.tempC[l])
		if dt <= 0 {
			dst[i].TerminalV = ocv - e.vrc[l] - 0*dcir
			continue
		}
		e.step(l, m, ocv, dcir, m.thermalDerate(e.tempC[l]), currents[i], dt, &dst[i])
	}
}

// stepPower is the flattened Cell.StepPower: solve the terminal-power
// quadratic for the current, then fall into the shared step kernel.
func (e *Engine) stepPower(l int, ocv, dcir, derate, pw, dt float64, res *battery.StepResult) {
	m := &e.models[e.mi[l]]
	if pw == 0 {
		e.step(l, m, ocv, dcir, derate, 0, dt, res)
		return
	}
	v := ocv - e.vrc[l]
	var cur float64
	if pw > 0 {
		disc := v*v - 4*dcir*pw
		if disc < 0 {
			cur = v / (2 * dcir)
		} else {
			cur = (v - math.Sqrt(disc)) / (2 * dcir)
		}
	} else {
		q := -pw
		j := (-v + math.Sqrt(v*v+4*dcir*q)) / (2 * dcir)
		cur = -j
	}
	e.step(l, m, ocv, dcir, derate, cur, dt, res)
}

// step is the flattened Cell.StepCurrent clamp chain plus
// Cell.integrate, transcribed statement for statement. ocv and dcir
// are the entry lookups (pure functions of the unmodified lane state)
// and derate the thermal derating factor; dt must be positive.
func (e *Engine) step(l int, m *model, ocv, dcir, derate, i, dt float64, res *battery.StepResult) {
	switch {
	case i > 0: // discharge
		if max := m.maxDisC * e.capacity[l] / 3600 * derate; i > max {
			i, res.Clamped = max, true
		}
		if avail := e.soc[l] * e.capacity[l]; i*dt > avail {
			i, res.Clamped = avail/dt, true
		}
		if v := ocv - e.vrc[l]; i*dcir >= v {
			i, res.Clamped = math.Max(0, v/(2*dcir)), true
		}
	case i < 0: // charge
		j := -i
		if max := m.maxChgC * e.capacity[l] / 3600 * derate; j > max {
			j, res.Clamped = max, true
		}
		if room := (1 - e.soc[l]) * e.capacity[l]; j*dt > room {
			j, res.Clamped = room/dt, true
		}
		i = -j
	}

	vterm := ocv - e.vrc[l] - i*dcir
	var heatRC float64
	if m.concR > 0 {
		if m.plateC > 0 {
			tau := m.concR * m.plateC
			e.vrc[l] = (e.vrc[l] + dt/tau*i*m.concR) / (1 + dt/tau)
		} else {
			e.vrc[l] = i * m.concR
		}
		heatRC = e.vrc[l] * e.vrc[l] / m.concR
	}

	heat := i*i*dcir + heatRC
	moved := i * dt
	e.soc[l] = clamp01(e.soc[l] - moved/e.capacity[l])
	e.totalLoss[l] += heat * dt

	if m.selfDis > 0 && e.soc[l] > 0 && math.Abs(i) < e.capacity[l]/3600*1e-3 {
		const month = 30 * 24 * 3600.0
		leak := e.soc[l] * m.selfDis * dt / month
		e.soc[l] = clamp01(e.soc[l] - leak)
		e.totalLoss[l] += leak * e.capacity[l] * m.ocvAt(e.soc[l])
	}

	if m.thMass > 0 {
		tau := m.thMass * m.thRes
		e.tempC[l] = (e.tempC[l] + dt/tau*(e.ambientC[l]+heat*m.thRes)) / (1 + dt/tau)
		e.tempSum[l] += e.tempC[l] * dt
		e.tempTime[l] += dt
	}

	if i >= 0 {
		e.totalOut[l] += moved
		e.disRateSum[l] += cRate(i, e.capacity[l]) * moved
		e.disCharge[l] += moved
	} else {
		in := -moved
		e.totalIn[l] += in
		e.cumCharge[l] += in
		e.chgRateSum[l] += cRate(-i, e.capacity[l]) * in
		e.chgCharge[l] += in
		if e.cumCharge[l] >= 0.8*e.capacity[l] {
			e.completeCycle(l, m)
			res.CycleCompleted = true
		}
	}

	res.Current = i
	res.TerminalV = vterm
	res.PowerW = vterm * i
	res.HeatW = heat
	res.ChargeMoved = moved
}

// completeCycle is the flattened Cell.completeCycle.
func (e *Engine) completeCycle(l int, m *model) {
	e.cycles[l]++
	e.cumCharge[l] = 0

	fade := 0.0
	if m.fadePerCycle > 0 {
		chgRate := m.fadeRefC
		if e.chgCharge[l] > 0 {
			chgRate = e.chgRateSum[l] / e.chgCharge[l]
		}
		fade = m.fadePerCycle * math.Pow(chgRate/m.fadeRefC, m.fadeExp)
		if m.disFadeWeight > 0 && e.disCharge[l] > 0 {
			disRate := e.disRateSum[l] / e.disCharge[l]
			fade += m.disFadeWeight * m.fadePerCycle *
				math.Pow(disRate/m.fadeRefC, m.fadeExp)
		}
		if m.agingFactor > 0 && e.tempTime[l] > 0 {
			avgT := e.tempSum[l] / e.tempTime[l]
			if over := avgT - m.agingThresh; over > 0 {
				fade *= 1 + m.agingFactor*over
			}
		}
	}
	e.tempSum[l], e.tempTime[l] = 0, 0
	if fade > 0 {
		abs := e.soc[l] * e.capacity[l]
		e.capacity[l] *= 1 - math.Min(fade, 0.5)
		e.soc[l] = clamp01(abs / e.capacity[l])
	}
	e.r0Mult[l] *= 1 + m.resGrowth
	e.chgRateSum[l], e.chgCharge[l] = 0, 0
	e.disRateSum[l], e.disCharge[l] = 0, 0
}

// ocvAt replicates denseTable.at over the shared OCV grid.
func (m *model) ocvAt(x float64) float64 {
	if x <= m.ocvLo {
		return m.ocvYs[0]
	}
	if x >= m.ocvHi {
		return m.ocvYs[len(m.ocvYs)-1]
	}
	f := (x - m.ocvLo) * m.ocvInvStep
	i := int(f)
	if i > len(m.ocvYs)-2 {
		i = len(m.ocvYs) - 2
	}
	y0 := m.ocvYs[i]
	return y0 + (f-float64(i))*(m.ocvYs[i+1]-y0)
}

// dcirAt replicates denseTable.at over the shared DCIR grid, before
// the aging and temperature multipliers.
func (m *model) dcirAt(x float64) float64 {
	if x <= m.dcirLo {
		return m.dcirYs[0]
	}
	if x >= m.dcirHi {
		return m.dcirYs[len(m.dcirYs)-1]
	}
	f := (x - m.dcirLo) * m.dcirInvStep
	i := int(f)
	if i > len(m.dcirYs)-2 {
		i = len(m.dcirYs) - 2
	}
	y0 := m.dcirYs[i]
	return y0 + (f-float64(i))*(m.dcirYs[i+1]-y0)
}

// tempRFactor mirrors Cell.tempRFactor.
func (m *model) tempRFactor(tempC float64) float64 {
	if m.thMass <= 0 || m.tempCoeff == 0 {
		return 1
	}
	f := 1 + m.tempCoeff*(tempC-battery.AmbientC)
	switch {
	case f < 0.6:
		return 0.6
	case f > 1.6:
		return 1.6
	}
	return f
}

// thermalDerate mirrors Cell.thermalDerate.
func (m *model) thermalDerate(tempC float64) float64 {
	if m.thMass <= 0 || m.maxTempC <= 0 {
		return 1
	}
	const band = 5.0
	head := m.maxTempC - tempC
	switch {
	case head >= band:
		return 1
	case head <= 0:
		return 0
	}
	return head / band
}

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
