// Package firmware emulates the SDB microcontroller firmware (Section
// 3.2, Figure 4(c)): the mechanism half of the SDB split. The
// controller owns the discharge path, one synchronous reversible buck
// channel per battery, the per-battery fuel gauges, and a small
// register file of charge/discharge ratios and charge-profile
// selections. It enforces whatever ratios the OS last set; all policy
// lives above it in the SDB Runtime (internal/core), mirroring the
// paper's mechanism-in-hardware / policy-in-OS design.
//
// The controller exposes the same four operations the paper's API
// defines — Charge, Discharge, ChargeOneFromAnother, and
// QueryBatteryStatus — both as direct method calls (it implements
// pmic.API) and over the bus protocol: Dispatch executes one request
// frame. The bytes of every frame belong to internal/pmic; this
// package keeps the command semantics. Its metric families and trace
// scope keep the device's name, sdb_pmic_* and "pmic".
package firmware

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"sdb/internal/battery"
	"sdb/internal/battery/batch"
	"sdb/internal/circuit"
	"sdb/internal/fuelgauge"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/pmic"
)

// totalSteps counts firmware enforcement steps across every controller
// in the process. The experiment runner samples it to report simulation
// throughput (steps/second) for a batch of concurrent jobs.
var totalSteps atomic.Int64

// TotalSteps returns the process-wide count of Controller.Step calls.
func TotalSteps() int64 { return totalSteps.Load() }

// Fault flags reported by Step.
type Fault int

const (
	// FaultNone means the step met its demand.
	FaultNone Fault = 0
	// FaultBrownout means the pack could not supply the requested load
	// even after redistribution.
	FaultBrownout Fault = 1 << iota
	// FaultTransferAborted means a battery-to-battery transfer stopped
	// early (source empty or destination full).
	FaultTransferAborted
)

// StepReport summarizes one firmware enforcement interval.
//
// PerCellW and PerCellA are owned by the controller and reused on the
// next Step call (the enforcement loop runs millions of steps and must
// not allocate); callers that retain a report across steps must copy
// them.
type StepReport struct {
	// DeliveredW is power actually delivered to the system load.
	DeliveredW float64
	// CircuitLossW is dissipation in the switching hardware.
	CircuitLossW float64
	// BatteryLossW is internal (I^2 R) dissipation inside the cells.
	BatteryLossW float64
	// ChargedW is net terminal power absorbed by all cells (positive
	// while charging).
	ChargedW float64
	// PerCellW is the realized terminal power per cell (positive
	// discharge).
	PerCellW []float64
	// PerCellA is the realized current per cell (positive discharge).
	PerCellA []float64
	// Faults carries fault flags raised during the step.
	Faults Fault
}

type transfer struct {
	from, to  int
	powerW    float64
	remaining float64 // seconds
}

// Config assembles a controller.
type Config struct {
	Pack          *battery.Pack
	DischargePath circuit.DischargeConfig
	Charger       circuit.ChargerConfig
	Profiles      []circuit.ChargeProfile
	Gauge         fuelgauge.Config
	// DefaultProfile names the profile each battery starts with.
	DefaultProfile string
	// ReportGaugeState makes QueryBatteryStatus report the fuel
	// gauges' estimates (state of charge, capacity, cycle count)
	// instead of simulator ground truth — what a real PMIC would
	// return. Ground truth remains the default so experiments stay
	// reproducible independent of gauge error.
	ReportGaugeState bool
	// WatchdogS arms the command watchdog: if no ratio command arrives
	// for this many simulated seconds the firmware reverts both ratio
	// registers to the uniform safe split. The firmware — not the OS —
	// is the safety backstop for charge/discharge ratios, so a runtime
	// that goes silent (crashed, link down) must not leave the pack
	// running stale ratios forever. Zero disables the watchdog.
	WatchdogS float64
	// Obs attaches a measurement plane. Nil falls back to the process
	// default registry (obs.Default()), which is itself nil unless a
	// CLI installed one — so the zero value means "uninstrumented",
	// and every metric operation degenerates to a nil-receiver no-op.
	Obs *obs.Registry
}

// DefaultConfig returns a controller configuration with the calibrated
// hardware models and standard profile table.
func DefaultConfig(pack *battery.Pack) Config {
	return Config{
		Pack:           pack,
		DischargePath:  circuit.DefaultDischargeConfig(),
		Charger:        circuit.DefaultChargerConfig(),
		Profiles:       circuit.StandardProfiles(),
		Gauge:          fuelgauge.DefaultConfig(),
		DefaultProfile: "standard",
	}
}

// Controller is the firmware instance. All methods are safe for
// concurrent use; Step must be called from a single simulation
// goroutine but may race freely with API calls.
type Controller struct {
	mu sync.Mutex

	pack   *battery.Pack
	cells  []*battery.Cell // pack.Cells(), hoisted once — the step loop must not re-fetch per cell
	gauges []*fuelgauge.Gauge
	dpath  *circuit.DischargePath
	// charger models every cell's charge channel: the channels are
	// identical and the model is stateless, so one serves them all.
	charger *circuit.Charger
	// profiles is the validated profile table, fixed at construction
	// and resolved by name with findProfile: a table holds a handful of
	// entries, so a scan is as fast as a map and costs no allocation.
	profiles []circuit.ChargeProfile

	dischargeRatios []float64
	chargeRatios    []float64
	// profileSel is each cell's selected charge profile, as an index
	// into profiles.
	profileSel []int
	xfer       *transfer

	// open marks cells isolated by an open-circuit fault: excluded from
	// discharge splits, charging, and transfers until cleared.
	open []bool

	// Watchdog state: simulated seconds since the last ratio command,
	// advanced by Step, reset by Charge/Discharge.
	watchdogS     float64
	sinceCmdS     float64
	watchdogFires int64

	// Step scratch, sized to the pack once at construction so
	// steady-state stepping performs zero heap allocations. stepW and
	// stepA back the PerCellW/PerCellA slices of the returned
	// StepReport; caps and split are internal to stepDischarging.
	stepW, stepA []float64
	caps, split  []float64

	steps atomic.Int64

	// Measurement plane (nil metrics are no-ops; see internal/obs),
	// fixed at construction: an uninstrumented controller points at
	// the shared all-nil noMetrics. simTimeS accumulates stepped time
	// so trace events carry the firmware's notion of simulated time;
	// lastBrownout edge-triggers the brownout trace event so a long
	// drain cannot flood the ring.
	om           *ctrlMetrics
	simTimeS     float64
	lastBrownout bool
	// reportGauge is Config.ReportGaugeState. It sits beside
	// lastBrownout so the two flags share one word, which keeps the
	// controller in the 512 B size class.
	reportGauge bool

	// rec is the optional time-series recorder served over CmdSeries.
	// The controller never samples it (scraping happens on policy-tick
	// boundaries, outside the hot loop); it only answers queries.
	rec *ts.Recorder

	// Fast-segment state (see fast.go): the batch engine the
	// cells are checked out into, this pack's lane window, the open
	// segment's params and lanes (nil outside BeginFast..EndFast), the
	// per-segment memoized realized discharge ratios, and the per-lane
	// step-entry cache. All nil/zero until AttachFast.
	fastEng      *batch.Engine
	fastPk       batch.Pack
	fastParams   []*battery.Params
	fastLanes    []battery.CellState
	fastRealized []float64
	fastEntry    []laneEntry
	fastHeat     float64
	fastSplitErr error
}

// ctrlMetrics bundles the firmware's observables. Every field is
// nil-safe, so an uninstrumented controller (nil registry) pays one
// predictable branch per operation and allocates nothing.
type ctrlMetrics struct {
	reg           *obs.Registry
	tracer        *obs.Tracer
	steps         *obs.Counter
	dischargeCmds *obs.Counter
	chargeCmds    *obs.Counter
	statusQueries *obs.Counter
	watchdogFires *obs.Counter
	brownoutSteps *obs.Counter
	transferAbort *obs.Counter
	deliveredJ    *obs.FCounter
	circuitLossJ  *obs.FCounter
	batteryLossJ  *obs.FCounter
	chargedJ      *obs.FCounter
	disRatio      []*obs.Gauge // latched per-cell discharge ratios
	chgRatio      []*obs.Gauge // latched per-cell charge ratios
	cellSoC       []*obs.Gauge // per-cell state of charge at last query
}

// noMetrics is the bundle of every uninstrumented controller: all nil,
// so every operation on it is a no-op, and never written.
var noMetrics ctrlMetrics

// newCtrlMetrics registers the firmware metric family. A nil registry
// gets the shared no-op bundle.
func newCtrlMetrics(reg *obs.Registry, n int) *ctrlMetrics {
	if reg == nil {
		return &noMetrics
	}
	m := &ctrlMetrics{
		reg:           reg,
		tracer:        reg.Tracer(),
		steps:         reg.Counter("sdb_pmic_steps_total"),
		dischargeCmds: reg.Counter("sdb_pmic_discharge_cmds_total"),
		chargeCmds:    reg.Counter("sdb_pmic_charge_cmds_total"),
		statusQueries: reg.Counter("sdb_pmic_status_queries_total"),
		watchdogFires: reg.Counter("sdb_pmic_watchdog_fires_total"),
		brownoutSteps: reg.Counter("sdb_pmic_brownout_steps_total"),
		transferAbort: reg.Counter("sdb_pmic_transfer_aborts_total"),
		deliveredJ:    reg.FCounter("sdb_pmic_delivered_joules_total"),
		circuitLossJ:  reg.FCounter("sdb_pmic_circuit_loss_joules_total"),
		batteryLossJ:  reg.FCounter("sdb_pmic_battery_loss_joules_total"),
		chargedJ:      reg.FCounter("sdb_pmic_charged_joules_total"),
		disRatio:      make([]*obs.Gauge, n),
		chgRatio:      make([]*obs.Gauge, n),
		cellSoC:       make([]*obs.Gauge, n),
	}
	for i := 0; i < n; i++ {
		m.disRatio[i] = reg.Gauge(fmt.Sprintf("sdb_pmic_cell%d_discharge_ratio", i))
		m.chgRatio[i] = reg.Gauge(fmt.Sprintf("sdb_pmic_cell%d_charge_ratio", i))
		m.cellSoC[i] = reg.Gauge(fmt.Sprintf("sdb_pmic_cell%d_soc", i))
	}
	return m
}

// NewController builds the firmware around a pack.
func NewController(cfg Config) (*Controller, error) {
	if cfg.Pack == nil {
		return nil, errors.New("firmware: config needs a pack")
	}
	n := cfg.Pack.N()
	dpath, err := circuit.NewDischargePath(cfg.DischargePath)
	if err != nil {
		return nil, err
	}
	if len(cfg.Profiles) == 0 {
		return nil, errors.New("firmware: config needs at least one charge profile")
	}
	for _, p := range cfg.Profiles {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	// A copy, so a caller that edits its Config afterwards cannot
	// change the firmware's table.
	profiles := append([]circuit.ChargeProfile(nil), cfg.Profiles...)
	def, ok := findProfile(profiles, cfg.DefaultProfile)
	if !ok {
		return nil, fmt.Errorf("firmware: default profile %q not in profile table", cfg.DefaultProfile)
	}
	charger, err := circuit.NewCharger(cfg.Charger)
	if err != nil {
		return nil, err
	}

	c := &Controller{
		pack:            cfg.Pack,
		cells:           cfg.Pack.Cells(),
		dpath:           dpath,
		charger:         charger,
		profiles:        profiles,
		dischargeRatios: uniform(n),
		chargeRatios:    uniform(n),
		profileSel:      make([]int, n),
		reportGauge:     cfg.ReportGaugeState,
		open:            make([]bool, n),
		watchdogS:       cfg.WatchdogS,
		stepW:           make([]float64, n),
		stepA:           make([]float64, n),
		caps:            make([]float64, n),
		split:           make([]float64, n),
		om:              newCtrlMetrics(cfg.Obs.Or(obs.Default()), n),
	}
	for i := 0; i < n; i++ {
		g, err := fuelgauge.New(cfg.Pack.Cell(i), cfg.Gauge)
		if err != nil {
			return nil, err
		}
		c.gauges = append(c.gauges, g)
		c.profileSel[i] = def
	}
	return c, nil
}

// findProfile resolves a profile name to its index in the table. It
// scans from the end, so when a table repeats a name the last entry
// wins.
func findProfile(profiles []circuit.ChargeProfile, name string) (int, bool) {
	for i := len(profiles) - 1; i >= 0; i-- {
		if profiles[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

func uniform(n int) []float64 {
	r := make([]float64, n)
	for i := range r {
		r[i] = 1 / float64(n)
	}
	return r
}

// Ping implements pmic.API.
func (c *Controller) Ping() error { return nil }

// BatteryCount implements pmic.API.
func (c *Controller) BatteryCount() (int, error) { return c.pack.N(), nil }

// Discharge implements pmic.API: it latches new discharge ratios.
func (c *Controller) Discharge(ratios []float64) error {
	if err := c.checkRatios(ratios); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	copy(c.dischargeRatios, ratios)
	c.sinceCmdS = 0
	c.om.dischargeCmds.Inc()
	for i, g := range c.om.disRatio {
		g.Set(ratios[i])
	}
	return nil
}

// Charge implements pmic.API: it latches new charge ratios.
func (c *Controller) Charge(ratios []float64) error {
	if err := c.checkRatios(ratios); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	copy(c.chargeRatios, ratios)
	c.sinceCmdS = 0
	c.om.chargeCmds.Inc()
	for i, g := range c.om.chgRatio {
		g.Set(ratios[i])
	}
	return nil
}

func (c *Controller) checkRatios(ratios []float64) error {
	if len(ratios) != c.pack.N() {
		return fmt.Errorf("firmware: got %d ratios for %d batteries", len(ratios), c.pack.N())
	}
	return circuit.ValidateRatios(ratios)
}

// ErrBadIndex marks battery-index range errors; the protocol layer
// maps it to StatusBadIndex so remote callers can classify rejections.
var ErrBadIndex = errors.New("firmware: battery index out of range")

// ChargeOneFromAnother implements pmic.API.
func (c *Controller) ChargeOneFromAnother(x, y int, w, t float64) error {
	n := c.pack.N()
	switch {
	case x < 0 || x >= n || y < 0 || y >= n:
		return fmt.Errorf("%w (x=%d y=%d n=%d)", ErrBadIndex, x, y, n)
	case x == y:
		return errors.New("firmware: cannot charge a battery from itself")
	case !(w > 0) || math.IsInf(w, 0):
		// A NaN power would pass a plain w <= 0 check and index the
		// charger's efficiency curve at NaN on the next step.
		return fmt.Errorf("firmware: transfer power %g must be positive and finite", w)
	case !(t > 0) || math.IsInf(t, 0):
		return fmt.Errorf("firmware: transfer duration %g must be positive and finite", t)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.xfer = &transfer{from: x, to: y, powerW: w, remaining: t}
	return nil
}

// CancelTransfer aborts any active battery-to-battery transfer.
func (c *Controller) CancelTransfer() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.xfer = nil
}

// TransferActive reports whether a transfer is in progress.
func (c *Controller) TransferActive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.xfer != nil
}

// SetCellOpen marks a cell open-circuit (or clears the fault). An open
// cell is isolated: it receives no share of the discharge split, no
// charging current, and aborts any transfer touching it; its status
// reports Faulted with zero power capability. This is the firmware
// hook the fault-injection layer and cell-protection logic drive.
func (c *Controller) SetCellOpen(i int, open bool) error {
	return c.withCell(i, func() { c.open[i] = open })
}

// withCell runs fn under the firmware lock if i indexes a cell.
func (c *Controller) withCell(i int, fn func()) error {
	if i < 0 || i >= c.pack.N() {
		return fmt.Errorf("%w (%d of %d)", ErrBadIndex, i, c.pack.N())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fn()
	return nil
}

// CellOpen reports whether cell i is isolated by an open-circuit fault.
func (c *Controller) CellOpen(i int) bool {
	if i < 0 || i >= c.pack.N() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.open[i]
}

// InjectCapacityFade applies a sudden capacity loss to cell i: it keeps
// retain of its current capacity. Entry point for the fault-injection
// layer; takes the firmware lock so it cannot race Step or status reads.
func (c *Controller) InjectCapacityFade(i int, retain float64) error {
	return c.withCell(i, func() { c.cells[i].InjectCapacityFade(retain) })
}

// InjectGaugeDrift shifts cell i's fuel-gauge SoC estimate by bias.
// Entry point for the fault-injection layer.
func (c *Controller) InjectGaugeDrift(i int, bias float64) error {
	return c.withCell(i, func() { c.gauges[i].InjectDrift(bias) })
}

// SetWatchdog rearms (or, with 0, disarms) the command watchdog.
func (c *Controller) SetWatchdog(seconds float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.watchdogS = seconds
	c.sinceCmdS = 0
}

// WatchdogFires reports how many times the command watchdog reverted
// the ratio registers to the uniform safe split.
func (c *Controller) WatchdogFires() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.watchdogFires
}

// SetChargeProfile implements pmic.API.
func (c *Controller) SetChargeProfile(batt int, profile string) error {
	if batt < 0 || batt >= c.pack.N() {
		return fmt.Errorf("%w (%d of %d)", ErrBadIndex, batt, c.pack.N())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sel, ok := findProfile(c.profiles, profile)
	if !ok {
		return fmt.Errorf("firmware: unknown charge profile %q", profile)
	}
	p := &c.profiles[sel]
	// A CV ceiling below the cell's mid-charge open-circuit potential
	// could never charge the cell meaningfully: almost certainly a
	// profile meant for a different pack voltage (e.g. a single-cell
	// 4.2 V profile selected for a 350 V traction pack).
	if floor := c.pack.Cell(batt).Model().OCV.At(0.2); p.CVVoltage > 0 && p.CVVoltage < floor {
		return fmt.Errorf("firmware: profile %q CV ceiling %.3g V below battery %d's 20%%-charge potential %.3g V",
			profile, p.CVVoltage, batt, floor)
	}
	c.profileSel[batt] = sel
	return nil
}

// QueryBatteryStatus implements pmic.API.
func (c *Controller) QueryBatteryStatus() ([]pmic.BatteryStatus, error) {
	return c.QueryBatteryStatusInto(nil)
}

// QueryBatteryStatusInto implements pmic.API.
func (c *Controller) QueryBatteryStatusInto(dst []pmic.BatteryStatus) ([]pmic.BatteryStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.om.statusQueries.Inc()
	out := slices.Grow(dst[:0], len(c.cells))[:len(c.cells)]
	for i, cell := range c.cells {
		s := cell.Snapshot()
		if c.reportGauge {
			// Report what the fuel gauge believes, as real firmware
			// does; capability numbers derive from the estimates.
			g := c.gauges[i]
			ratio := 1.0
			if s.SoC > 1e-9 {
				ratio = g.SoC() / s.SoC
			}
			s.SoC = g.SoC()
			s.CapacityCoulombs = g.EstimatedCapacity()
			s.CycleCount = float64(g.CycleCount())
			s.EnergyRemainingJ *= ratio
		}
		out[i] = pmic.BatteryStatus{
			Index:            i,
			Name:             s.Name,
			Chem:             s.Chem.Short(),
			SoC:              s.SoC,
			TerminalV:        s.TerminalV,
			CycleCount:       s.CycleCount,
			WearRatio:        s.WearRatio,
			RatedCycles:      s.RatedCycles,
			CapacityFraction: s.CapacityFraction,
			CapacityCoulombs: s.CapacityCoulombs,
			DCIR:             s.DCIR,
			DCIRSlope:        cell.DCIRSlope(),
			MaxDischargeW:    s.MaxDischargeW,
			MaxChargeW:       s.MaxChargeW,
			MaxChargeA:       cell.MaxChargeCurrent(),
			EnergyRemainingJ: s.EnergyRemainingJ,
			TemperatureC:     s.TemperatureC,
			Bendable:         s.Bendable,
			Faulted:          c.open[i],
		}
		if c.open[i] {
			// An isolated cell can source and sink nothing, whatever
			// charge it still holds.
			out[i].MaxDischargeW = 0
			out[i].MaxChargeW = 0
			out[i].MaxChargeA = 0
		}
	}
	for i, g := range c.om.cellSoC {
		g.Set(out[i].SoC)
	}
	return out, nil
}

// Ratios returns copies of the currently latched ratio registers.
func (c *Controller) Ratios() (discharge, charge []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.dischargeRatios...), append([]float64(nil), c.chargeRatios...)
}

// Step advances the hardware by dt seconds with the given system load
// (watts at the regulator output) and available external supply power
// (watts; 0 when unplugged). This is the enforcement loop a real
// microcontroller runs continuously.
func (c *Controller) Step(loadW, externalW, dt float64) (StepReport, error) {
	// One comparison pair each rejects NaN (every comparison with NaN is
	// false) and ±Inf, as Trace.Validate does for its samples.
	if !(dt > 0 && dt <= math.MaxFloat64) {
		return StepReport{}, fmt.Errorf("firmware: step dt %g must be positive and finite", dt)
	}
	if !(loadW >= 0 && loadW <= math.MaxFloat64) || !(externalW >= 0 && externalW <= math.MaxFloat64) {
		return StepReport{}, fmt.Errorf("firmware: load (%g) and supply (%g) must be finite and non-negative", loadW, externalW)
	}
	c.steps.Add(1)
	totalSteps.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.simTimeS += dt
	c.om.steps.Inc()

	// Command watchdog: a silent runtime must not leave the pack on
	// stale ratios, so after WatchdogS seconds without a ratio command
	// the firmware falls back to the uniform safe split on its own.
	if c.watchdogS > 0 {
		c.sinceCmdS += dt
		if c.sinceCmdS >= c.watchdogS {
			n := len(c.dischargeRatios)
			for i := 0; i < n; i++ {
				c.dischargeRatios[i] = 1 / float64(n)
				c.chargeRatios[i] = 1 / float64(n)
			}
			c.watchdogFires++
			c.sinceCmdS = 0
			c.om.watchdogFires.Inc()
			c.om.tracer.Emit(obs.Event{
				TimeS: c.simTimeS, Scope: "pmic", Kind: "watchdog-fire",
				Cell: -1, V1: float64(c.watchdogFires), V2: c.watchdogS,
			})
		}
	}

	clear(c.stepW)
	clear(c.stepA)
	rep := StepReport{
		PerCellW: c.stepW,
		PerCellA: c.stepA,
	}
	heatBefore := c.totalCellLoss()

	if externalW > 0 {
		c.stepCharging(loadW, externalW, dt, &rep)
	} else {
		c.stepDischarging(loadW, dt, &rep)
		c.stepTransfer(dt, &rep)
	}

	rep.BatteryLossW = (c.totalCellLoss() - heatBefore) / dt
	c.feedGauges(&rep, dt)

	// Measurement plane: energy accumulators every step; trace events
	// only on rare edges (brownout onset, transfer abort) so a long
	// fault condition cannot flood the bounded ring.
	c.om.deliveredJ.Add(rep.DeliveredW * dt)
	c.om.circuitLossJ.Add(rep.CircuitLossW * dt)
	c.om.batteryLossJ.Add(rep.BatteryLossW * dt)
	c.om.chargedJ.Add(rep.ChargedW * dt)
	brown := rep.Faults&FaultBrownout != 0
	if brown {
		c.om.brownoutSteps.Inc()
		if !c.lastBrownout {
			c.om.tracer.Emit(obs.Event{
				TimeS: c.simTimeS, Scope: "pmic", Kind: "brownout",
				Cell: -1, V1: loadW, V2: rep.DeliveredW,
			})
		}
	}
	c.lastBrownout = brown
	if rep.Faults&FaultTransferAborted != 0 {
		c.om.transferAbort.Inc()
		c.om.tracer.Emit(obs.Event{
			TimeS: c.simTimeS, Scope: "pmic", Kind: "transfer-abort", Cell: -1,
		})
	}
	return rep, nil
}

// stepDischarging splits the load across cells per the latched ratios,
// redistributing demand away from cells that cannot deliver.
func (c *Controller) stepDischarging(loadW, dt float64, rep *StepReport) {
	cells := c.cells
	n := len(cells)
	if loadW == 0 {
		for i := 0; i < n; i++ {
			res := cells[i].StepCurrent(0, dt)
			rep.PerCellA[i] += res.Current
		}
		return
	}
	perCell := c.split
	lossW, err := c.dpath.SplitInto(perCell, c.dischargeRatios, loadW)
	if err != nil {
		// Ratio registers are validated on write; SplitInto can only
		// fail on internal inconsistency. Treat as brownout.
		rep.Faults |= FaultBrownout
		return
	}
	rep.CircuitLossW = lossW

	caps := c.caps
	for i := 0; i < n; i++ {
		cell := cells[i]
		if c.open[i] {
			// Open-circuit cell: zero capability, so the redistribution
			// rounds below shift its entire share to the survivors.
			caps[i] = 0
			continue
		}
		caps[i] = cell.MaxDischargePower()
		// A nearly-empty cell may report a healthy instantaneous
		// capability yet hold too little energy to sustain it through
		// this step; bound by deliverable energy so the slack shifts
		// to the other cells instead of browning out. The exact bound
		// integrates OCV over remaining charge — 50 curve lookups — so
		// first test a cheap lower bound that can only under-estimate:
		// when even the floor clears the capability, the exact value
		// cannot lower the min and the integral is skipped.
		if 0.9*cell.EnergyRemainingLowerBoundJ()/dt < caps[i] {
			if eCap := 0.9 * cell.EnergyRemainingJ() / dt; eCap < caps[i] {
				caps[i] = eCap
			}
		}
	}
	redistribute(perCell, caps)

	var realized float64
	for i := 0; i < n; i++ {
		if c.open[i] {
			// No current path through an isolated cell; it only relaxes.
			res := cells[i].StepCurrent(0, dt)
			rep.PerCellA[i] += res.Current
			continue
		}
		res := cells[i].StepPower(perCell[i], dt)
		rep.PerCellW[i] += res.PowerW
		rep.PerCellA[i] += res.Current
		realized += res.PowerW
	}
	if brownout(realized, loadW+lossW) {
		rep.Faults |= FaultBrownout
	}
	// Loss comes off the top; the load gets the rest.
	rep.DeliveredW = math.Max(0, realized-lossW)
}

// stepCharging serves the load from external power and pushes the
// remainder into the cells per the charge ratios, profiles, and
// charger efficiency.
func (c *Controller) stepCharging(loadW, externalW, dt float64, rep *StepReport) {
	cells := c.cells
	n := len(cells)
	avail := externalW - loadW
	if avail < 0 {
		// Supply cannot cover the load: batteries make up the rest.
		rep.DeliveredW = externalW
		c.stepDischarging(-avail, dt, rep)
		rep.DeliveredW += externalW
		return
	}
	rep.DeliveredW = loadW

	for i := 0; i < n; i++ {
		cell := cells[i]
		if c.open[i] {
			// Isolated: no charge path either; the cell only relaxes.
			res := cell.StepCurrent(0, dt)
			rep.PerCellA[i] += res.Current
			continue
		}
		budget := c.chargeRatios[i] * avail
		if budget <= 0 || cell.Full() {
			res := cell.StepCurrent(0, dt)
			rep.PerCellA[i] += res.Current
			continue
		}
		wantW, eff, ok := c.chargeSetPoint(i, budget, cell.SoC(), cell.Capacity(), cell.TerminalVoltage(0), cell.DCIR())
		if !ok {
			res := cell.StepCurrent(0, dt)
			rep.PerCellA[i] += res.Current
			continue
		}
		res := cell.StepPower(-wantW, dt)
		rep.PerCellW[i] += res.PowerW
		rep.PerCellA[i] += res.Current
		rep.ChargedW += -res.PowerW
		rep.CircuitLossW += -res.PowerW * (1/eff - 1)
	}
}

// redistribute shifts demand exceeding a cell's capability to the
// cells with headroom, in place (a real regulator saturates a channel's
// duty and the control loop shifts the slack elsewhere). Up to three
// rounds.
func redistribute(perCell, caps []float64) {
	n := len(perCell)
	for round := 0; round < 3; round++ {
		var excess float64
		var headroom float64
		for i := 0; i < n; i++ {
			if perCell[i] > caps[i] {
				excess += perCell[i] - caps[i]
				perCell[i] = caps[i]
			} else {
				headroom += caps[i] - perCell[i]
			}
		}
		if excess <= 1e-12 || headroom <= 1e-12 {
			break
		}
		scale := math.Min(1, excess/headroom)
		for i := 0; i < n; i++ {
			if perCell[i] < caps[i] {
				perCell[i] += (caps[i] - perCell[i]) * scale
			}
		}
	}
}

// brownout reports whether the cells' realized power falls
// substantially short of the wanted power. A small one-step dip (a
// cell hitting empty mid-interval before the ratios shift) is absorbed
// by the output capacitor.
func brownout(realized, want float64) bool {
	const tolerance = 0.05
	return realized < want*(1-tolerance)-1e-9
}

// chargeSetPoint returns the terminal power cell i absorbs this step
// from a charge budget (watts at the charger input), and the charger's
// efficiency at that current. soc and capacity are the cell's; vOpen
// is its terminal voltage at zero current and dcir its resistance. ok
// is false when the charger realizes no current, and the cell only
// relaxes.
func (c *Controller) chargeSetPoint(i int, budget, soc, capacity, vOpen, dcir float64) (wantW, eff float64, ok bool) {
	prof := &c.profiles[c.profileSel[i]]
	rate := prof.RateAt(soc)       // C
	maxA := rate * capacity / 3600 // amperes
	// CV phase: taper the current so the cell terminal voltage never
	// exceeds the profile's constant-voltage ceiling.
	if prof.CVVoltage > 0 && dcir > 0 {
		cvA := (prof.CVVoltage - vOpen) / dcir
		if cvA < 0 {
			cvA = 0
		}
		if cvA < maxA {
			maxA = cvA
		}
	}
	setA := math.Min(maxA, c.charger.MaxCurrent())
	actualA, err := c.charger.RealizedCurrent(setA)
	if err != nil || actualA <= 0 {
		return 0, 0, false
	}
	// Power needed at the cell terminals for actualA.
	cur := -actualA
	wantW = (vOpen - cur*dcir) * actualA
	eff = c.charger.Efficiency(actualA)
	// The budget is measured at the charger input.
	if wantW/eff > budget {
		wantW = budget * eff
	}
	return wantW, eff, true
}

// stepTransfer advances any active battery-to-battery transfer.
func (c *Controller) stepTransfer(dt float64, rep *StepReport) {
	if c.xfer == nil {
		return
	}
	x := c.xfer
	src := c.cells[x.from]
	dst := c.cells[x.to]
	if c.open[x.from] || c.open[x.to] || src.Empty() || dst.Full() || x.remaining <= 0 {
		c.xfer = nil
		rep.Faults |= FaultTransferAborted
		return
	}
	step := math.Min(dt, x.remaining)
	drawW := math.Min(x.powerW, src.MaxDischargePower())
	// Both channels convert: source regulator in reverse buck, sink in
	// buck (Section 3.2.2).
	iGuess := drawW / dst.TerminalVoltage(0)
	eff := circuit.TransferEfficiency(c.charger, c.charger, iGuess)
	out := src.StepPower(drawW, step)
	in := dst.StepPower(-out.PowerW*eff, step)
	rep.PerCellW[x.from] += out.PowerW
	rep.PerCellW[x.to] += in.PowerW
	rep.PerCellA[x.from] += out.Current
	rep.PerCellA[x.to] += in.Current
	rep.ChargedW += -in.PowerW
	rep.CircuitLossW += out.PowerW * (1 - eff)
	x.remaining -= step
	if x.remaining <= 0 {
		c.xfer = nil
	}
}

// feedGauges pushes each cell's realized current and terminal voltage
// for the step into its fuel gauge.
func (c *Controller) feedGauges(rep *StepReport, dt float64) {
	for i, g := range c.gauges {
		cell := c.cells[i]
		g.Observe(rep.PerCellA[i], cell.TerminalVoltage(rep.PerCellA[i]), dt)
	}
}

// Gauge returns the i-th fuel gauge (for inspection by tests and the
// emulator).
func (c *Controller) Gauge(i int) *fuelgauge.Gauge { return c.gauges[i] }

// SetRecorder attaches a time-series recorder for CmdSeries to serve.
// Call before traffic; a nil recorder (the default) answers SeriesList
// with zero series and SeriesGet with a bad-index status.
func (c *Controller) SetRecorder(rec *ts.Recorder) {
	c.mu.Lock()
	c.rec = rec
	c.mu.Unlock()
}

// Recorder returns the attached time-series recorder (nil when
// recording is off; the recorder's methods are nil-safe).
func (c *Controller) Recorder() *ts.Recorder {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rec
}

// Pack returns the managed pack.
func (c *Controller) Pack() *battery.Pack { return c.pack }

// StepCount returns how many enforcement steps this controller has run.
func (c *Controller) StepCount() int64 { return c.steps.Load() }

func (c *Controller) totalCellLoss() float64 {
	var sum float64
	for _, cell := range c.cells {
		sum += cell.TotalLoss()
	}
	return sum
}

var _ pmic.API = (*Controller)(nil)
