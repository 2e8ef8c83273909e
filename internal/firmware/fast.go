package firmware

import (
	"errors"
	"math"

	"sdb/internal/battery"
	"sdb/internal/battery/batch"
)

// Fast-segment stepping: the batched counterpart of Step for the hot
// path — steps on battery power and steps whose external supply covers
// the load (surplus charging). A caller (the emulator's batch stepper)
// brackets a run of steps with BeginFast/EndFast; in between, FastStep
// and FastStepSupplied advance the firmware one enforcement interval
// on the batch engine's lanes instead of the scalar cells: BeginFast
// fetches the pack's params and CellState lanes (batch.Engine.Lanes)
// and each step runs battery.CellState's kernel on them in place.
// EndFast drops the slices: a Checkout on the shared engine (a device
// added to the shard between ticks) may move their backing arrays.
//
// Bit-identity contract: a fast segment must leave the controller and
// its cells in exactly the state the same sequence of
// Step(loadW, externalW, dt) calls would have produced. fastStep
// follows Step's discharge path and stepCharging's surplus path, with
// three verified-safe deviations:
//
//   - OCV/DCIR/derate are looked up once per cell per step and shared
//     between the capability query, the integration, and the gauge
//     feed (the scalar path re-derives them from unchanged state, so
//     the values are equal). The lookup happens after the integration
//     so the same entry also serves the NEXT step: lane state cannot
//     change between steps of a segment, making the post-step values
//     and the next step's entry values the same bits.
//   - The realized discharge ratios are memoized per segment: they
//     depend only on the latched ratio registers, which cannot change
//     while the firmware mutex is held — except by the watchdog, which
//     re-memoizes in place. The pack heat sum is carried the same way:
//     this step's post-step sum is the next step's pre-step sum.
//   - Step counters are published once per segment (EndFast) instead of
//     per step. StepCount/TotalSteps lag by at most one segment.
//
// The redistribution rounds (redistribute), brownout detection
// (brownout) and the charge set point (chargeSetPoint: the CC rate and
// CV taper, the charger's realized current and efficiency) are the
// helpers Step calls, and the cell arithmetic is battery.CellState's
// kernel, the code the scalar cells step through; the watchdog and
// gauge feeding are per-step transcriptions. Deficit steps
// (0 < externalW < loadW), transfers and open cells stay on the scalar
// Step (see BeginFast and the emulator's fastRunLen).
//
// The fast path requires an uninstrumented controller (nil obs
// registry): with a registry attached, Step's metric and trace calls
// are observable side effects a skipped transcription would lose, so
// AttachFast refuses.

// FastStepOut is the slimmed step report of the fast path: exactly the
// fields the emulator consumes between steps. Per-cell arrays stay
// internal; lane state is read through FastLanes' engine and pack
// (batch.Engine.Lanes) inside a segment.
type FastStepOut struct {
	DeliveredW   float64
	CircuitLossW float64
	BatteryLossW float64
	// ChargedW is the net terminal power the cells absorbed (StepReport's
	// ChargedW); zero on battery power.
	ChargedW float64
	Brownout bool
}

// AttachFast checks the controller's cells out into a batch engine,
// enabling BeginFast segments. The engine is typically shared by every
// device on a fleet shard so their lanes pack into one contiguous
// array. Fails if the controller is instrumented (see package comment)
// or any cell lacks dense curves.
func (c *Controller) AttachFast(eng *batch.Engine) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.om.reg != nil {
		return errors.New("firmware: fast stepping requires an uninstrumented controller")
	}
	pk, err := eng.Checkout(c.cells)
	if err != nil {
		return err
	}
	n := len(c.cells)
	c.fastEng, c.fastPk = eng, pk
	c.fastRealized = make([]float64, n)
	c.fastEntry = make([]laneEntry, n)
	return nil
}

// FastLanes returns the attached engine and this controller's pack
// within it, for lane reads (SoC, Empty) between the fast steps of an
// open segment. The engine is nil if AttachFast has not succeeded.
func (c *Controller) FastLanes() (*batch.Engine, batch.Pack) {
	return c.fastEng, c.fastPk
}

// BeginFast opens a fast segment: it takes the firmware mutex, loads
// the cells' state into the engine lanes, and memoizes the realized
// discharge ratios. It returns false — without holding the mutex — if
// the controller is not in a fast-steppable state (no engine attached,
// a transfer in flight, or a cell isolated open); the caller then steps
// scalar for this batch. On true, the mutex is held until EndFast:
// API calls (ratio commands, transfers, status queries) block for the
// duration of the segment, which is bounded by the caller's batch size.
func (c *Controller) BeginFast() bool {
	if c.fastEng == nil {
		return false
	}
	c.mu.Lock()
	if c.xfer != nil {
		c.mu.Unlock()
		return false
	}
	for _, o := range c.open {
		if o {
			c.mu.Unlock()
			return false
		}
	}
	c.fastEng.SyncIn(c.fastPk, c.cells)
	c.fastParams, c.fastLanes = c.fastEng.Lanes(c.fastPk)
	c.fastSplitErr = c.dpath.RealizedRatiosInto(c.fastRealized, c.dischargeRatios)
	// Prime the per-lane step-entry cache and the pack heat sum; both
	// stay valid across steps because nothing else can touch lane state
	// while the mutex is held.
	c.fastHeat = c.fastEntries()
	return true
}

// laneEntry is one lane's step-entry quantities (CellState.Entry).
type laneEntry struct{ ocv, dcir, derate float64 }

// fastEntries refreshes the step-entry cache at the lanes' current
// state and returns the pack heat sum.
func (c *Controller) fastEntries() (heat float64) {
	lanes := c.fastLanes
	n := len(lanes)
	params, entries := c.fastParams[:n], c.fastEntry[:n]
	for i := range lanes {
		heat += lanes[i].TotalLoss
		e := &entries[i]
		e.ocv, e.dcir, e.derate = lanes[i].Entry(params[i])
	}
	return heat
}

// FastStep advances one enforcement interval on battery power (the
// externalW == 0 branch of Step). Preconditions, guaranteed by the
// emulator: a BeginFast segment is open, dt > 0, loadW >= 0.
func (c *Controller) FastStep(loadW, dt float64) FastStepOut {
	return c.fastStep(loadW, 0, dt)
}

// FastStepSupplied advances one enforcement interval with externalW of
// external supply: Step(loadW, externalW, dt) for a supply of zero or
// one that covers the load. Preconditions, guaranteed by the emulator:
// a BeginFast segment is open, dt > 0, loadW >= 0, and externalW == 0
// or externalW >= loadW.
func (c *Controller) FastStepSupplied(loadW, externalW, dt float64) FastStepOut {
	return c.fastStep(loadW, externalW, dt)
}

// fastStep is the one body behind FastStep and FastStepSupplied.
func (c *Controller) fastStep(loadW, externalW, dt float64) FastStepOut {
	// Every per-cell slice is resliced to the lane count once, so the
	// loops below index them without bounds checks.
	lanes := c.fastLanes
	n := len(lanes)
	params, entries, currents := c.fastParams[:n], c.fastEntry[:n], c.stepA[:n]
	c.simTimeS += dt

	// Watchdog, transcribed from Step: revert to the uniform safe split
	// after watchdogS silent seconds. The revert invalidates the
	// memoized realized ratios, so re-derive them.
	if c.watchdogS > 0 {
		c.sinceCmdS += dt
		if c.sinceCmdS >= c.watchdogS {
			for i := 0; i < n; i++ {
				c.dischargeRatios[i] = 1 / float64(n)
				c.chargeRatios[i] = 1 / float64(n)
			}
			c.watchdogFires++
			c.sinceCmdS = 0
			c.fastSplitErr = c.dpath.RealizedRatiosInto(c.fastRealized, c.dischargeRatios)
		}
	}

	var out FastStepOut
	heatBefore := c.fastHeat
	stepped := true

	switch {
	case externalW > 0:
		c.fastSurplus(&out, loadW, externalW, dt)
	case loadW == 0:
		// Idle: every cell relaxes at zero current.
		for i := range lanes {
			var res battery.StepResult
			e := &entries[i]
			lanes[i].StepAt(params[i], e.ocv, e.dcir, e.derate, 0, dt, &res)
			currents[i] = res.Current
		}
	case c.fastSplitErr != nil:
		// Mirror of stepDischarging's SplitInto error path: brownout,
		// cells untouched this interval, gauges observe zero current.
		// Lane state is unchanged, so the entry cache and heat sum stay
		// valid as-is.
		out.Brownout = true
		stepped = false
		for i := range currents {
			currents[i] = 0
		}
	default:
		// SplitInto, with the ratio realization memoized: the per-cell
		// demand is realized[i] * (loadW + lossW), identical to the
		// scalar computation because the realized ratios depend only on
		// the latched registers.
		lossW := loadW * c.dpath.LossFraction(loadW)
		out.CircuitLossW = lossW
		total := loadW + lossW

		// Demand and capability per cell in one pass; the capability
		// comes from the cached step-entry values (the scalar path's
		// fresh lookups at the same unchanged state return the same
		// bits).
		perCell, caps, realizedRatios := c.split[:n], c.caps[:n], c.fastRealized[:n]
		for i := range lanes {
			s, p, e := &lanes[i], params[i], &entries[i]
			perCell[i] = realizedRatios[i] * total
			caps[i] = s.MaxDischargePowerAt(p, e.ocv, e.dcir, e.derate)
			if 0.9*s.EnergyRemainingLowerBoundJ(p)/dt < caps[i] {
				if eCap := 0.9 * s.EnergyRemainingJ(p) / dt; eCap < caps[i] {
					caps[i] = eCap
				}
			}
		}
		redistribute(perCell, caps)

		var realized float64
		for i := range lanes {
			var res battery.StepResult
			e := &entries[i]
			lanes[i].StepPowerAt(params[i], e.ocv, e.dcir, e.derate, perCell[i], dt, &res)
			currents[i] = res.Current
			realized += res.PowerW
		}
		out.Brownout = brownout(realized, loadW+lossW)
		out.DeliveredW = math.Max(0, realized-lossW)
	}

	heatAfter := heatBefore
	if stepped {
		// Re-sum the pack heat and refresh the entry cache at the
		// post-step state. The refreshed values feed the gauges below
		// and are the next step's entries.
		heatAfter = c.fastEntries()
	}
	c.fastHeat = heatAfter
	out.BatteryLossW = (heatAfter - heatBefore) / dt

	// Gauges run the real estimator code against post-step lane state,
	// fed the terminal voltage at the step's current (Cell's
	// TerminalVoltage expression on the refreshed entry).
	for i, g := range c.gauges[:n] {
		e := &entries[i]
		g.Observe(currents[i], e.ocv-lanes[i].VRC-currents[i]*e.dcir, dt)
	}

	c.lastBrownout = out.Brownout
	return out
}

// fastSurplus is stepCharging's surplus path (externalW >= loadW) on
// the step-entry cache: the supply serves the load and the rest
// charges the cells per the charge ratios, profiles, and charger
// efficiency. Every cell is stepped, so the caller's post-step refresh
// of the entry cache and heat sum applies as on battery power.
func (c *Controller) fastSurplus(out *FastStepOut, loadW, externalW, dt float64) {
	lanes := c.fastLanes
	n := len(lanes)
	params, entries := c.fastParams[:n], c.fastEntry[:n]
	currents, ratios := c.stepA[:n], c.chargeRatios[:n]
	avail := externalW - loadW
	out.DeliveredW = loadW
	// Step accumulates each current into a cleared per-cell slot, so
	// the currents below are written as 0 + current: that keeps its
	// folding of a -0 current (a vanishing charge request) to +0.
	for i := range lanes {
		s, p, e := &lanes[i], params[i], &entries[i]
		var res battery.StepResult
		budget := ratios[i] * avail
		if budget <= 0 || s.Full() {
			s.StepAt(p, e.ocv, e.dcir, e.derate, 0, dt, &res)
			currents[i] = 0 + res.Current
			continue
		}
		vOpen := e.ocv - s.VRC - 0*e.dcir
		wantW, eff, ok := c.chargeSetPoint(i, budget, s.SoC, s.Capacity, vOpen, e.dcir)
		if !ok {
			s.StepAt(p, e.ocv, e.dcir, e.derate, 0, dt, &res)
			currents[i] = 0 + res.Current
			continue
		}
		s.StepPowerAt(p, e.ocv, e.dcir, e.derate, -wantW, dt, &res)
		currents[i] = 0 + res.Current
		out.ChargedW += -res.PowerW
		out.CircuitLossW += -res.PowerW * (1/eff - 1)
	}
}

// EndFast closes a fast segment of k steps: lane state flows back into
// the scalar cells, the step counters catch up, and the firmware mutex
// is released.
func (c *Controller) EndFast(k int) {
	c.fastEng.SyncOut(c.fastPk, c.cells)
	c.fastParams, c.fastLanes = nil, nil
	if k > 0 {
		c.steps.Add(int64(k))
		totalSteps.Add(int64(k))
	}
	c.mu.Unlock()
}
