// Package sdb is the public API of this reproduction of "Software
// Defined Batteries" (Badam et al., SOSP 2015). SDB lets a device
// combine heterogeneous batteries — fast-charging, high energy-density,
// bendable — and gives OS-level policies fine-grained control over how
// much power flows in and out of each one.
//
// The package wires together the layered implementation:
//
//   - internal/battery: Thevenin cell models + the 15-cell library
//   - internal/circuit: discharge/charge power-path hardware models
//   - internal/firmware: microcontroller firmware (mechanism)
//   - internal/pmic:    the control protocol between runtime and firmware
//   - internal/core:    the SDB Runtime and policies (policy)
//   - internal/emulator: the multi-battery emulator
//   - internal/sim:     one driver per paper table/figure
//
// # Quick start
//
//	sys, err := sdb.NewSystem(sdb.SystemConfig{
//		Cells: []string{"QuickCharge-2000", "EnergyMax-4000"},
//	})
//	...
//	sys.Runtime.Update(loadW, 0)      // OS policy tick
//	sys.Controller.Step(loadW, 0, 1)  // hardware enforcement tick
//
// See examples/ for complete scenarios.
package sdb

import (
	"fmt"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/firmware"
	"sdb/internal/obs/ts"
	"sdb/internal/pmic"
	"sdb/internal/sim"
	"sdb/internal/workload"
)

// Re-exported core types, so most applications only import sdb.
type (
	// Cell is one battery cell instance (Thevenin model + aging).
	Cell = battery.Cell
	// CellParams describes a cell design.
	CellParams = battery.Params
	// Pack is an ordered set of heterogeneous cells.
	Pack = battery.Pack
	// Controller is the SDB microcontroller firmware emulation.
	Controller = firmware.Controller
	// BatteryStatus is the per-battery record QueryBatteryStatus
	// returns.
	BatteryStatus = pmic.BatteryStatus
	// Runtime is the OS-resident SDB Runtime.
	Runtime = core.Runtime
	// RuntimeOptions configures policies and directive parameters.
	RuntimeOptions = core.Options
	// DischargePolicy computes discharge power ratios.
	DischargePolicy = core.DischargePolicy
	// Metrics is the CCB/RBL metric snapshot.
	Metrics = core.Metrics
	// Trace is a power-draw time series driving the emulator.
	Trace = workload.Trace
	// EmulatorResult summarizes an emulation run.
	EmulatorResult = emulator.Result
)

// Built-in policies (Section 3.3 of the paper plus baselines).
type (
	// RBLDischarge minimizes instantaneous resistive losses.
	RBLDischarge = core.RBLDischarge
	// RBLCharge pushes charge where it incurs least loss.
	RBLCharge = core.RBLCharge
	// CCBDischarge balances wear across cells while discharging.
	CCBDischarge = core.CCBDischarge
	// CCBCharge balances wear across cells while charging.
	CCBCharge = core.CCBCharge
	// Reserve preserves one cell for an anticipated high-power
	// workload.
	Reserve = core.Reserve
	// FixedRatios always returns one vector (the hardcoded-firmware
	// strawman).
	FixedRatios = core.FixedRatios
	// ThermalGuard shifts load away from hot cells before firmware
	// thermal protection engages.
	ThermalGuard = core.ThermalGuard
)

// Deadline-aware charge planning (the quantitative version of the
// paper's "about to board a plane" directive).
type (
	// ChargeSpec carries the aging characteristics the planner needs.
	ChargeSpec = core.ChargeSpec
	// DeadlinePlan is the planner output: per-battery rates, firmware
	// ratios, feasibility, and a longevity-damage estimate.
	DeadlinePlan = core.DeadlinePlan
)

// PlanDeadlineCharge computes the minimal-damage charging plan that
// reaches targetFrac of pack charge within deadlineS seconds.
func PlanDeadlineCharge(sts []BatteryStatus, specs []ChargeSpec, targetFrac, deadlineS float64) (DeadlinePlan, error) {
	return core.PlanDeadlineCharge(sts, specs, targetFrac, deadlineS)
}

// SpecFromParams extracts a ChargeSpec from a cell design.
func SpecFromParams(p CellParams) ChargeSpec { return core.SpecFromParams(p) }

// Workload helpers re-exported for applications and examples.
var (
	// ConstantTrace returns a flat load trace.
	ConstantTrace = workload.Constant
	// SquareTrace returns a two-level square-wave trace.
	SquareTrace = workload.Square
)

// CellLibrary returns the 15 modeled cells (paper Section 4.3).
func CellLibrary() []CellParams { return battery.Library() }

// CellByName looks up a library cell design.
func CellByName(name string) (CellParams, error) { return battery.ByName(name) }

// NewCell instantiates a cell at 100% state of charge.
func NewCell(p CellParams) (*Cell, error) { return battery.New(p) }

// SystemConfig assembles a full SDB stack.
type SystemConfig struct {
	// Cells names library cell designs; duplicates are disambiguated
	// with -2, -3, ... suffixes.
	Cells []string
	// CustomCells adds explicit designs after the named ones.
	CustomCells []CellParams
	// InitialSoC sets every cell's starting state of charge (default 1).
	InitialSoC *float64
	// Runtime options (policies, directives).
	Runtime RuntimeOptions
}

// System is a wired SDB stack: pack, firmware, and runtime.
type System struct {
	Pack       *Pack
	Controller *Controller
	Runtime    *Runtime
	// Recorder, when set, records the stack's metrics registry as time
	// series during Run (sampled on policy-tick boundaries) and is
	// served remotely over CmdSeries. Nil (the default) records nothing
	// and leaves Run byte-identical to an unrecorded stack.
	Recorder *ts.Recorder
}

// NewSystem builds the stack of Figure 3: heterogeneous cells under a
// microcontroller, managed by an OS runtime.
func NewSystem(cfg SystemConfig) (*System, error) {
	designs := make([]CellParams, 0, len(cfg.Cells)+len(cfg.CustomCells))
	counts := map[string]int{}
	for _, name := range cfg.Cells {
		p, err := battery.ByName(name)
		if err != nil {
			return nil, err
		}
		counts[name]++
		if counts[name] > 1 {
			p.Name = fmt.Sprintf("%s-%d", p.Name, counts[name])
		}
		designs = append(designs, p)
	}
	designs = append(designs, cfg.CustomCells...)
	soc := 1.0
	if cfg.InitialSoC != nil {
		soc = *cfg.InitialSoC
	}
	st, err := emulator.NewStack(soc, cfg.Runtime, designs...)
	if err != nil {
		return nil, err
	}
	return &System{Pack: st.Pack, Controller: st.Controller, Runtime: st.Runtime}, nil
}

// Run drives the system through a workload trace, updating policies at
// policyEveryS and stepping the hardware at the trace's sample period.
func (s *System) Run(tr *Trace, policyEveryS float64, stopWhenDrained bool) (*EmulatorResult, error) {
	return emulator.Run(emulator.Config{
		Controller:      s.Controller,
		Runtime:         s.Runtime,
		Trace:           tr,
		PolicyEveryS:    policyEveryS,
		StopWhenDrained: stopWhenDrained,
		Recorder:        s.Recorder,
	})
}

// Status queries per-battery state through the firmware.
func (s *System) Status() ([]BatteryStatus, error) { return s.Controller.QueryBatteryStatus() }

// Metrics returns the pack-level CCB/RBL metrics.
func (s *System) Metrics() (Metrics, error) { return s.Runtime.Metrics() }

// Experiments returns the registry of paper tables/figures this
// repository regenerates (see EXPERIMENTS.md).
func Experiments() []sim.Experiment { return sim.All() }

// ExperimentByID finds one experiment driver.
func ExperimentByID(id string) (sim.Experiment, bool) { return sim.ByID(id) }
