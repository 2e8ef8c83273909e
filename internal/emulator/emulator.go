// Package emulator is the multi-battery emulator of Section 4.3: it
// steps a workload trace through the full SDB stack — the OS-side
// runtime recomputing ratios at coarse time steps, the microcontroller
// enforcing them every step, and the Thevenin cells integrating the
// resulting currents — and records the time series the Section 5
// experiments plot.
package emulator

import (
	"errors"
	"fmt"
	"math"
	"time"

	"sdb/internal/battery"
	"sdb/internal/battery/batch"
	"sdb/internal/core"
	"sdb/internal/faults"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/pmic"
	"sdb/internal/workload"
)

// Config describes one emulation run.
type Config struct {
	// Controller is the firmware under test.
	Controller *pmic.Controller
	// Runtime is the policy stack; nil runs firmware-only with its
	// latched ratios (the "hardcoded" configuration of Section 7).
	Runtime *core.Runtime
	// Trace drives the load and external supply.
	Trace *workload.Trace
	// PolicyEveryS is how often the runtime recomputes ratios (the
	// paper's coarse-grained policy step). Default 60 s.
	PolicyEveryS float64
	// StopWhenDrained ends the run at the first brownout (daily
	// battery-life experiments measure time to empty).
	StopWhenDrained bool
	// RecordEveryS throttles series recording. Default: every step.
	RecordEveryS float64
	// DirectiveFn, when set, is consulted at every policy step with
	// the current simulation time and may adjust runtime directives or
	// policies — the hook the paper's schedule-aware OS logic uses.
	DirectiveFn func(tS float64, rt *core.Runtime)
	// Faults, when set, fires scheduled cell-level faults (open
	// circuit, capacity fade, gauge drift) into the controller as
	// simulated time passes. Nil leaves the run untouched.
	Faults *faults.Schedule
	// Obs attaches a measurement plane: step-timing histogram, policy
	// tick counter, and the energy-conservation residual gauge. Nil
	// falls back to the process default registry; a nil default leaves
	// the run uninstrumented and byte-identical to earlier releases.
	Obs *obs.Registry
	// Recorder, when set, is sampled on every policy-tick boundary (and
	// once more at run end) so the registry's point-in-time metrics
	// become recorded time series. Give it a StepS no finer than
	// PolicyEveryS — grid points between ticks repeat the last-seen
	// values. Nil records nothing and costs nothing.
	Recorder *ts.Recorder
}

// Series holds the recorded waveforms.
type Series struct {
	T            []float64
	LoadW        []float64
	DeliveredW   []float64
	CircuitLossW []float64
	BatteryLossW []float64
	SoC          [][]float64 // [cell][sample]
}

// Result summarizes a run.
type Result struct {
	Series *Series
	// DrainedAtS is when the pack first failed to meet the load
	// (negative if it never did).
	DrainedAtS float64
	// CellDrainedAtS records when each cell first hit empty (negative
	// if never).
	CellDrainedAtS []float64
	// Energy totals over the run (joules).
	DeliveredJ    float64
	CircuitLossJ  float64
	BatteryLossJ  float64
	ChargedJ      float64
	BrownoutSteps int
	// Steps is the number of firmware enforcement steps executed.
	Steps int
	// FinalMetrics is the pack metric snapshot at the end.
	FinalMetrics core.Metrics
	// Elapsed is the simulated time covered (may be shorter than the
	// trace with StopWhenDrained).
	ElapsedS float64
}

// Machine is a resumable emulation: the same run Run executes in one
// call, sliced into explicit steps so a scheduler can interleave many
// emulations on one goroutine (the fleet server drives thousands this
// way). NewMachine performs Run's setup, each Step executes exactly one
// firmware enforcement step with the same statement sequence as Run's
// loop body, and Finish executes Run's epilogue — so a Machine stepped
// to completion produces a Result byte-identical to Run with the same
// Config.
//
// A Machine is not safe for concurrent use; drive it from one
// goroutine at a time.
type Machine struct {
	cfg   Config
	dt    float64
	steps int
	cells []*battery.Cell
	n     int

	recordEvery int
	policyEvery int

	reg         *obs.Registry
	stepHist    *obs.Histogram
	stepsCtr    *obs.Counter
	policyTicks *obs.Counter
	residualG   *obs.Gauge

	externalJ float64
	startE    float64

	res  *Result
	k    int  // next step index
	done bool // trace exhausted or brownout-stopped

	// batchEng, when non-nil, routes StepBatch through the
	// struct-of-arrays fast path (see fast.go). Set by EnableBatch.
	batchEng *batch.Engine
}

// NewMachine validates the config and prepares a run. No simulated
// time passes until Step.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Controller == nil {
		return nil, errors.New("emulator: config needs a controller")
	}
	if cfg.Trace == nil {
		return nil, errors.New("emulator: config needs a trace")
	}
	if err := cfg.Trace.Validate(); err != nil {
		return nil, fmt.Errorf("emulator: %w", err)
	}
	if cfg.PolicyEveryS <= 0 {
		cfg.PolicyEveryS = 60
	}
	m := &Machine{cfg: cfg, dt: cfg.Trace.DT}
	m.recordEvery = 1
	if cfg.RecordEveryS > m.dt {
		m.recordEvery = int(math.Round(cfg.RecordEveryS / m.dt))
	}
	// Policy ticks are derived from integer step counts, not an
	// accumulated float time: t >= nextPolicy with t = k*dt drifts on
	// long runs (a tick lands one step late whenever k*dt rounds below
	// the target, shifting every later tick), while k%policyEvery
	// cannot drift or double-fire.
	m.policyEvery = int(math.Round(cfg.PolicyEveryS / m.dt))
	if m.policyEvery < 1 {
		m.policyEvery = 1
	}

	// Hot-loop hoists: the pack topology is fixed for the run, so
	// resolve the cell slice once instead of Pack().Cell(i) per cell
	// per step.
	m.steps = cfg.Trace.Len()
	m.cells = cfg.Controller.Pack().Cells()
	m.n = len(m.cells)

	// Measurement plane. Everything below is nil-safe, but the wall
	// clock and the energy audit are guarded on reg so an
	// uninstrumented run performs no timing syscalls and no extra
	// energy sums — byte- and work-identical to earlier releases.
	m.reg = cfg.Obs.Or(obs.Default())
	m.stepHist = m.reg.Histogram("sdb_emulator_step_seconds",
		[]float64{1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 1e-3, 1e-2})
	m.stepsCtr = m.reg.Counter("sdb_emulator_steps_total")
	m.policyTicks = m.reg.Counter("sdb_emulator_policy_ticks_total")
	m.residualG = m.reg.Gauge("sdb_emulator_energy_residual_joules")
	if m.reg != nil {
		m.startE = packStoredJ(m.cells)
	}
	// Step k records when k%recordEvery == 0, so a full run writes
	// exactly ceil(steps/recordEvery) samples per column.
	samples := (m.steps + m.recordEvery - 1) / m.recordEvery
	m.res = &Result{
		DrainedAtS:     -1,
		CellDrainedAtS: make([]float64, m.n),
		Series: &Series{
			T:            make([]float64, 0, samples),
			LoadW:        make([]float64, 0, samples),
			DeliveredW:   make([]float64, 0, samples),
			CircuitLossW: make([]float64, 0, samples),
			BatteryLossW: make([]float64, 0, samples),
			SoC:          make([][]float64, m.n),
		},
	}
	for i := range m.res.Series.SoC {
		m.res.Series.SoC[i] = make([]float64, 0, samples)
	}
	for i := range m.res.CellDrainedAtS {
		m.res.CellDrainedAtS[i] = -1
	}
	if m.steps == 0 {
		m.done = true
	}
	return m, nil
}

// Done reports whether the run has consumed its trace (or stopped at
// its first brownout under StopWhenDrained). A done Machine's Step is
// a no-op; Finish computes the Result.
func (m *Machine) Done() bool { return m.done }

// StepsRun returns how many firmware steps have executed so far.
func (m *Machine) StepsRun() int { return m.res.Steps }

// ElapsedS returns the simulated time covered so far: the end of the
// last executed step, 0 before the first.
func (m *Machine) ElapsedS() float64 { return m.res.ElapsedS }

// Runtime returns the policy stack the machine was configured with
// (nil for firmware-only runs). Telemetry layers read its health
// ladder position between steps.
func (m *Machine) Runtime() *core.Runtime { return m.cfg.Runtime }

// Step executes one firmware enforcement step (one trace sample),
// including any policy tick or fault scheduled at its boundary.
// It returns false once the run is complete.
func (m *Machine) Step() (bool, error) {
	if m.done {
		return false, nil
	}
	cfg, res, k := &m.cfg, m.res, m.k
	t := float64(k) * m.dt
	loadW, extW := cfg.Trace.Sample(k)

	// Faults strike before the policy tick so the tick's status
	// query already sees them.
	if cfg.Faults != nil {
		if err := cfg.Faults.Apply(t, cfg.Controller); err != nil {
			return false, fmt.Errorf("emulator: fault injection at t=%g: %w", t, err)
		}
	}

	if k%m.policyEvery == 0 {
		// Scrape on the tick boundary, before the tick's update, so a
		// sample at time t covers exactly the steps before t. The
		// recorder is nil-safe and an unset one skips all registry
		// work, keeping uninstrumented runs byte-identical.
		cfg.Recorder.Sample(t)
		if cfg.Runtime != nil {
			if cfg.DirectiveFn != nil {
				cfg.DirectiveFn(t, cfg.Runtime)
			}
			cfg.Runtime.NoteTime(t)
			m.policyTicks.Inc()
			if _, err := cfg.Runtime.Update(loadW, extW); err != nil {
				return false, fmt.Errorf("emulator: policy update at t=%g: %w", t, err)
			}
		}
	}

	var t0 time.Time
	if m.reg != nil {
		t0 = time.Now()
	}
	rep, err := cfg.Controller.Step(loadW, extW, m.dt)
	if err != nil {
		return false, fmt.Errorf("emulator: step at t=%g: %w", t, err)
	}
	if m.reg != nil {
		m.stepHist.Observe(time.Since(t0).Seconds())
		m.stepsCtr.Inc()
		// External-supply energy audit: while plugged in with
		// surplus, every joule reaching load, cells, or switching
		// loss came from the supply; in makeup mode the supply
		// contributes exactly its rating and the cells the rest.
		if extW > 0 {
			if extW >= loadW {
				m.externalJ += (rep.DeliveredW + rep.ChargedW + rep.CircuitLossW) * m.dt
			} else {
				m.externalJ += extW * m.dt
			}
		}
	}
	res.Steps++

	res.DeliveredJ += rep.DeliveredW * m.dt
	res.CircuitLossJ += rep.CircuitLossW * m.dt
	res.BatteryLossJ += rep.BatteryLossW * m.dt
	res.ChargedJ += rep.ChargedW * m.dt
	res.ElapsedS = t + m.dt

	for i := 0; i < m.n; i++ {
		if res.CellDrainedAtS[i] < 0 && m.cells[i].Empty() {
			res.CellDrainedAtS[i] = t
		}
	}
	if rep.Faults&pmic.FaultBrownout != 0 {
		res.BrownoutSteps++
		if res.DrainedAtS < 0 {
			res.DrainedAtS = t
		}
		if cfg.StopWhenDrained {
			// Match Run's historical break: the drained step's sample is
			// not recorded.
			m.done = true
			return false, nil
		}
	}

	if k%m.recordEvery == 0 {
		s := res.Series
		s.T = append(s.T, t)
		s.LoadW = append(s.LoadW, loadW)
		s.DeliveredW = append(s.DeliveredW, rep.DeliveredW)
		s.CircuitLossW = append(s.CircuitLossW, rep.CircuitLossW)
		s.BatteryLossW = append(s.BatteryLossW, rep.BatteryLossW)
		for i := 0; i < m.n; i++ {
			s.SoC[i] = append(s.SoC[i], m.cells[i].SoC())
		}
	}

	m.k++
	if m.k >= m.steps {
		m.done = true
		return false, nil
	}
	return true, nil
}

// StepBatch executes up to max steps, returning how many ran. It stops
// early at run completion or on the first error. Batching is how a
// fleet shard amortizes its wakeup across many devices without letting
// one device monopolize the goroutine.
func (m *Machine) StepBatch(max int) (int, error) {
	if m.batchEng != nil {
		return m.stepBatchFast(max)
	}
	ran := 0
	for ran < max {
		more, err := m.Step()
		if err != nil {
			return ran, err
		}
		ran++
		if !more {
			break
		}
	}
	return ran, nil
}

// Finish computes the end-of-run summary and returns the Result. Call
// it once, after Done; calling earlier summarizes a truncated run
// (deliberate: a fleet can snapshot a device mid-trace).
func (m *Machine) Finish() (*Result, error) {
	res := m.res
	sts, err := m.cfg.Controller.QueryBatteryStatus()
	if err != nil {
		return nil, err
	}
	res.FinalMetrics = core.ComputeMetrics(sts)
	if m.reg != nil {
		// First-law residual over the whole run: supply input plus the
		// drop in stored energy must equal everything accounted for.
		// A drifting residual flags an energy leak in the cell or
		// circuit models long before a trend shows in the series.
		m.residualG.Set(m.externalJ + m.startE - packStoredJ(m.cells) -
			(res.DeliveredJ + res.CircuitLossJ + res.BatteryLossJ))
		m.reg.Tracer().Emit(obs.Event{
			TimeS: 0, Scope: "emulator", Kind: "run.span", Cell: -1,
			V1: res.ElapsedS, V2: float64(res.Steps),
		})
	}
	// Final scrape so the tail of the run (after the last tick) and the
	// end-of-run residual gauge land in the recording.
	m.cfg.Recorder.Sample(res.ElapsedS)
	return res, nil
}

// Run executes the emulation to completion: Machine setup, every step,
// and the epilogue in one call.
func Run(cfg Config) (*Result, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	for !m.Done() {
		if _, err := m.Step(); err != nil {
			return nil, err
		}
	}
	return m.Finish()
}

// packStoredJ sums the recoverable energy in the cells plus the energy
// parked in their RC plate capacitances — the stored-energy term of
// the emulator's first-law audit.
func packStoredJ(cells []*battery.Cell) float64 {
	var sum float64
	for _, c := range cells {
		v := c.RCVoltage()
		sum += c.EnergyRemainingJ() + 0.5*c.Params().PlateC*v*v
	}
	return sum
}

// Stack bundles a freshly wired controller + runtime for scenario code.
type Stack struct {
	Pack       *battery.Pack
	Controller *pmic.Controller
	Runtime    *core.Runtime
}

// NewStack builds a pack from cell parameters (all cells at the given
// initial state of charge), a default-configured controller, and a
// runtime with the given options. opts.Obs instruments the controller
// as well as the runtime, so the stack reports into one registry.
func NewStack(initialSoC float64, opts core.Options, cellParams ...battery.Params) (*Stack, error) {
	if len(cellParams) == 0 {
		return nil, errors.New("emulator: stack needs at least one cell")
	}
	cells := make([]*battery.Cell, 0, len(cellParams))
	for _, p := range cellParams {
		c, err := battery.New(p)
		if err != nil {
			return nil, err
		}
		c.SetSoC(initialSoC)
		cells = append(cells, c)
	}
	pack, err := battery.NewPack(cells...)
	if err != nil {
		return nil, err
	}
	pcfg := pmic.DefaultConfig(pack)
	pcfg.Obs = opts.Obs
	ctrl, err := pmic.NewController(pcfg)
	if err != nil {
		return nil, err
	}
	rt, err := core.NewRuntime(ctrl, opts)
	if err != nil {
		return nil, err
	}
	return &Stack{Pack: pack, Controller: ctrl, Runtime: rt}, nil
}
