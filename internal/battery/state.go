package battery

import "sync/atomic"

// CellState is the complete mutable state of a Cell, exported so a
// batch execution engine (internal/battery/batch) can hold the same
// state in struct-of-arrays form and hand it back bit-for-bit. The
// scalar Cell remains the reference implementation; CellState is the
// checkout/checkin contract between the two.
//
// Every field mirrors the unexported Cell field of the same name.
// Params are not part of the state: they are immutable after New.
type CellState struct {
	SoC      float64 // state of charge in [0,1] of current capacity
	VRC      float64 // volts across the RC pair
	Capacity float64 // current effective capacity, coulombs
	R0Mult   float64 // DCIR growth multiplier

	TempC    float64
	AmbientC float64
	TempSum  float64
	TempTime float64

	Cycles    float64
	CumCharge float64

	ChgRateSum float64
	ChgCharge  float64
	DisRateSum float64
	DisCharge  float64

	TotalIn   float64
	TotalOut  float64
	TotalLoss float64
}

// ExportState snapshots the cell's mutable state.
func (c *Cell) ExportState() CellState {
	return CellState{
		SoC: c.soc, VRC: c.vrc, Capacity: c.capacity, R0Mult: c.r0Mult,
		TempC: c.tempC, AmbientC: c.ambientC, TempSum: c.tempSum, TempTime: c.tempTime,
		Cycles: c.cycles, CumCharge: c.cumCharge,
		ChgRateSum: c.chgRateSum, ChgCharge: c.chgCharge,
		DisRateSum: c.disRateSum, DisCharge: c.disCharge,
		TotalIn: c.totalIn, TotalOut: c.totalOut, TotalLoss: c.totalLoss,
	}
}

// ImportState overwrites the cell's mutable state with a snapshot
// previously produced by ExportState (possibly advanced by the batch
// engine). No validation: the engine and the cell share one model, so
// any state the engine produces is a state the cell could have reached.
func (c *Cell) ImportState(s CellState) {
	c.soc, c.vrc, c.capacity, c.r0Mult = s.SoC, s.VRC, s.Capacity, s.R0Mult
	c.tempC, c.ambientC, c.tempSum, c.tempTime = s.TempC, s.AmbientC, s.TempSum, s.TempTime
	c.cycles, c.cumCharge = s.Cycles, s.CumCharge
	c.chgRateSum, c.chgCharge = s.ChgRateSum, s.ChgCharge
	c.disRateSum, c.disCharge = s.DisRateSum, s.DisCharge
	c.totalIn, c.totalOut, c.totalLoss = s.TotalIn, s.TotalOut, s.TotalLoss
}

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
