package emulator

import "sdb/internal/battery/batch"

// Batched fast path: StepBatch normally loops Step, which pays the
// full per-step generality (fault scan, policy boundary, instrumented
// controller step) for every device step. When a run is eligible, the
// fast path instead carves the batch into segments of steps that are
// provably free of policy work and faults, and on battery power or on
// an external supply that covers the load, and drives those through
// the firmware's batch fast segment
// (firmware.BeginFast/FastStepSupplied/EndFast). Any step that fails an
// eligibility check runs through the ordinary Step — the scalar path
// remains the reference, and the fast path must be bit-identical to
// it (the fleet identity soak enforces this).

// EnableBatch checks this machine's cells out into a batch
// engine (typically shared by every device on a fleet shard) and routes
// StepBatch through the batched kernel. It returns false, leaving the
// machine on the scalar path, if the run is instrumented (an obs
// registry observes per-step timing the fast path doesn't produce) or
// the controller refuses (instrumented firmware, cells without dense
// curves).
func (m *Machine) EnableBatch(eng *batch.Engine) bool {
	if m.reg != nil || m.batchEng != nil {
		return false
	}
	if err := m.cfg.Controller.AttachFast(eng); err != nil {
		return false
	}
	m.batchEng = eng
	return true
}

// fastRunLen reports how many steps starting at m.k are eligible for a
// fast segment, capped at limit: each must have a non-negative load on
// battery power or on a supply that covers it (a deficit step, where
// the cells make up a short supply, stays scalar), must not be a
// working policy boundary, and must precede the next scheduled fault.
// 0 means the current step needs the scalar path.
func (m *Machine) fastRunLen(limit int) int {
	if rem := m.steps - m.k; limit > rem {
		limit = rem
	}
	// A policy boundary is a no-op when there is neither a runtime to
	// tick nor a recorder to scrape; only a working one breaks segments.
	policyWorks := m.cfg.Runtime != nil || m.cfg.Recorder != nil
	faultAt, faultDue := 0.0, false
	if m.cfg.Faults != nil {
		faultAt, faultDue = m.cfg.Faults.NextAt()
	}
	n := 0
	for n < limit {
		k := m.k + n
		if faultDue && faultAt <= float64(k)*m.dt {
			break
		}
		if policyWorks && k%m.policyEvery == 0 {
			break
		}
		loadW, extW := m.cfg.Trace.Sample(k)
		if loadW < 0 || (extW != 0 && !(extW >= loadW)) {
			break
		}
		n++
	}
	return n
}

// runFastSegment executes up to n eligible steps inside an open fast
// segment, mirroring Step's bookkeeping statement for statement. It
// closes the segment and returns how many steps ran (short only when
// the run completes or StopWhenDrained fires).
func (m *Machine) runFastSegment(n int) int {
	cfg, res := &m.cfg, m.res
	ctrl := cfg.Controller
	// The segment's lanes, read in place for the drained test and the
	// recorded SoC; valid until EndFast below.
	eng, pk := ctrl.FastLanes()
	_, lanes := eng.Lanes(pk)
	ran := 0
	for ran < n {
		k := m.k
		t := float64(k) * m.dt
		loadW, extW := cfg.Trace.Sample(k)

		out := ctrl.FastStepSupplied(loadW, extW, m.dt)
		ran++
		res.Steps++

		res.DeliveredJ += out.DeliveredW * m.dt
		res.CircuitLossJ += out.CircuitLossW * m.dt
		res.BatteryLossJ += out.BatteryLossW * m.dt
		res.ChargedJ += out.ChargedW * m.dt
		res.ElapsedS = t + m.dt

		for i := range lanes {
			if res.CellDrainedAtS[i] < 0 && lanes[i].Empty() {
				res.CellDrainedAtS[i] = t
			}
		}
		if out.Brownout {
			res.BrownoutSteps++
			if res.DrainedAtS < 0 {
				res.DrainedAtS = t
			}
			if cfg.StopWhenDrained {
				// As in Step: the drained step's sample is not recorded
				// and the step index does not advance.
				m.done = true
				break
			}
		}

		if m.recordEvery > 0 && k%m.recordEvery == 0 {
			s := m.series
			s.DeliveredW = append(s.DeliveredW, out.DeliveredW)
			s.CircuitLossW = append(s.CircuitLossW, out.CircuitLossW)
			s.BatteryLossW = append(s.BatteryLossW, out.BatteryLossW)
			for i := range lanes {
				s.SoC[i] = append(s.SoC[i], lanes[i].SoC)
			}
		}

		m.k++
		if m.k >= m.steps {
			m.done = true
			break
		}
	}
	ctrl.EndFast(ran)
	return ran
}

// stepBatchFast is StepBatch over the batched kernel: fast segments
// where eligible, single scalar Steps everywhere else, with the same
// return contract as the scalar loop.
func (m *Machine) stepBatchFast(max int) (int, error) {
	ran := 0
	for ran < max {
		if m.done {
			// The scalar loop counts the no-op Step that reports
			// completion; keep the accounting identical.
			ran++
			break
		}
		n := m.fastRunLen(max - ran)
		if n == 0 || !m.cfg.Controller.BeginFast() {
			// Ineligible step (policy tick, fault due, supply deficit) or
			// transient firmware state (transfer in flight, open cell):
			// run exactly one step through the reference path.
			more, err := m.Step()
			if err != nil {
				return ran, err
			}
			ran++
			if !more {
				break
			}
			continue
		}
		ran += m.runFastSegment(n)
		if m.done {
			break
		}
	}
	return ran, nil
}
