// Package fuelgauge implements the per-battery fuel gauge of the SDB
// hardware (Section 2.2 and the custom coulomb-counter module of
// Section 4.1). A gauge estimates state of charge by integrating
// measured current (coulomb counting) and corrects drift against the
// open-circuit-voltage table when the cell rests. It also maintains
// the OS-visible cycle counter using the paper's cumulative-80% rule.
//
// The gauge deliberately does NOT read the cell's true state: it
// observes only the terminal quantities a real sense resistor and ADC
// would see, with configurable gain and offset errors, so estimation
// error is part of the simulation.
package fuelgauge

import (
	"errors"
	"fmt"
	"math"

	"sdb/internal/battery"
)

// Config sets the gauge's measurement non-idealities.
type Config struct {
	// GainError is the fractional current-sense gain error (e.g.
	// 0.005 reads 1.000 A as 1.005 A).
	GainError float64
	// OffsetA is a constant current-sense offset in amperes.
	OffsetA float64
	// RestThresholdA: below this magnitude the cell counts as resting
	// and OCV correction may engage.
	RestThresholdA float64
	// RestSettleS is how long the cell must rest before the gauge
	// trusts the terminal voltage as OCV.
	RestSettleS float64
}

// DefaultConfig returns typical coulomb-counter characteristics
// (0.3% gain error, 1 mA offset, 60 s rest settle).
func DefaultConfig() Config {
	return Config{GainError: 0.003, OffsetA: 0.001, RestThresholdA: 0.01, RestSettleS: 60}
}

// Gauge tracks one cell. Rest correction reads the cell's OCV table
// through Cell.Model, which copies no parameters, so the gauge keeps no
// copy of the table.
type Gauge struct {
	cell *battery.Cell
	cfg  Config

	estSoC    float64
	estCapC   float64 // estimated capacity, coulombs
	restFor   float64 // seconds the cell has been at rest
	cycles    int
	cumCharge float64 // coulombs charged since last cycle increment
	lastI     float64
	lastV     float64
}

// New attaches a gauge to a cell. The gauge starts calibrated: it
// learns the initial state of charge and capacity (as a shipped gauge
// would from factory characterization).
func New(cell *battery.Cell, cfg Config) (*Gauge, error) {
	if cell == nil {
		return nil, errors.New("fuelgauge: nil cell")
	}
	if cfg.GainError < 0 || cfg.GainError > 0.05 {
		return nil, fmt.Errorf("fuelgauge: gain error %g out of range", cfg.GainError)
	}
	if cfg.RestThresholdA < 0 || cfg.RestSettleS < 0 {
		return nil, errors.New("fuelgauge: negative rest parameters")
	}
	return &Gauge{
		cell:    cell,
		cfg:     cfg,
		estSoC:  cell.SoC(),
		estCapC: cell.Capacity(),
		lastV:   cell.TerminalVoltage(0),
	}, nil
}

// Observe feeds one measurement interval to the gauge: the true cell
// current i (positive discharge) flowed for dt seconds and the terminal
// voltage was v. The gauge sees the current through its imperfect sense
// path.
func (g *Gauge) Observe(i, v, dt float64) {
	if dt <= 0 {
		return
	}
	sensed := i*(1+g.cfg.GainError) + g.cfg.OffsetA
	g.lastI, g.lastV = sensed, v

	g.estSoC -= sensed * dt / g.estCapC
	g.estSoC = clamp01(g.estSoC)

	if sensed < 0 {
		in := -sensed * dt
		g.cumCharge += in
		if g.cumCharge >= 0.8*g.estCapC {
			g.cycles++
			g.cumCharge = 0
		}
	}

	if math.Abs(i) <= g.cfg.RestThresholdA {
		g.restFor += dt
		if g.restFor >= g.cfg.RestSettleS {
			g.ocvCorrect(v)
		}
	} else {
		g.restFor = 0
	}
}

// ocvCorrect snaps the SoC estimate toward the inverse OCV lookup of
// the rest voltage, trimming coulomb-counting drift.
func (g *Gauge) ocvCorrect(vrest float64) {
	soc, ok := InvertOCV(g.cell.Model().OCV, vrest)
	if !ok {
		return
	}
	// Blend rather than jump: the OCV table has its own error.
	g.estSoC = clamp01(0.8*g.estSoC + 0.2*soc)
}

// SoC returns the estimated state of charge.
func (g *Gauge) SoC() float64 { return g.estSoC }

// Error returns the current absolute SoC estimation error against the
// cell's true state (available because this is a simulation; real
// gauges cannot know it).
func (g *Gauge) Error() float64 { return math.Abs(g.estSoC - g.cell.SoC()) }

// CycleCount returns the gauge's cycle counter (the OS-visible value).
func (g *Gauge) CycleCount() int { return g.cycles }

// InjectDrift shifts the SoC estimate by bias (clamped to [0,1] after
// the shift), modeling accumulated coulomb-counting error or a sense
// glitch. The underlying cell is untouched — only the estimate lies.
func (g *Gauge) InjectDrift(bias float64) {
	g.estSoC = clamp01(g.estSoC + bias)
}

// EstimatedCapacity returns the gauge's current capacity estimate in
// coulombs.
func (g *Gauge) EstimatedCapacity() float64 { return g.estCapC }

// State is a gauge's complete mutable state: everything a checkpoint
// must carry to freeze the estimator mid-run. The cell binding and
// measurement config are derived from configuration and are
// reconstructed, not checkpointed.
type State struct {
	EstSoC    float64
	EstCapC   float64
	RestFor   float64
	CumCharge float64
	LastI     float64
	LastV     float64
	Cycles    int
}

// ExportState snapshots the gauge's mutable state.
func (g *Gauge) ExportState() State {
	return State{
		EstSoC:    g.estSoC,
		EstCapC:   g.estCapC,
		RestFor:   g.restFor,
		CumCharge: g.cumCharge,
		LastI:     g.lastI,
		LastV:     g.lastV,
		Cycles:    g.cycles,
	}
}

// ImportState overwrites the gauge's mutable state with a snapshot
// taken by ExportState on an identically configured gauge.
func (g *Gauge) ImportState(s State) {
	g.estSoC = s.EstSoC
	g.estCapC = s.EstCapC
	g.restFor = s.RestFor
	g.cumCharge = s.CumCharge
	g.lastI = s.LastI
	g.lastV = s.LastV
	g.cycles = s.Cycles
}

// InvertOCV finds the state of charge at which the curve crosses the
// given voltage, by 60 rounds of bisection over the monotone OCV table.
// ok is false when v lies outside the curve's range or is NaN.
//
// On a dense curve whose table is monotone in floating point, the
// first 52 rounds collapse into one O(log n) search
// (battery.Curve.BisectBracket) that lands on the same bracket bit for
// bit, and only the last 8 rounds run here; the result is identical to
// the full loop, which every other curve still runs.
func InvertOCV(ocv battery.Curve, v float64) (soc float64, ok bool) {
	if ocv.IsZero() || math.IsNaN(v) {
		return 0, false
	}
	vlo, vhi := ocv.At(0), ocv.At(1)
	if v <= vlo {
		return 0, v >= vlo-1e-9
	}
	if v >= vhi {
		return 1, v <= vhi+1e-9
	}
	if lo, hi, ok := ocv.BisectBracket(v); ok {
		return bisect(ocv, v, lo, hi, invertRounds-battery.BracketRounds), true
	}
	return bisect(ocv, v, 0, 1, invertRounds), true
}

// invertRounds is InvertOCV's bisection depth.
const invertRounds = 60

// bisect narrows [lo, hi] around the crossing of ocv.At(x) < v for the
// given number of rounds and returns the final midpoint.
func bisect(ocv battery.Curve, v, lo, hi float64, rounds int) float64 {
	for k := 0; k < rounds; k++ {
		mid := (lo + hi) / 2
		if ocv.At(mid) < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
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
