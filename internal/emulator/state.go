package emulator

import (
	"fmt"
	"math"

	"sdb/internal/core"
	"sdb/internal/firmware"
)

// MachineState is the complete mutable state of a Machine mid-run:
// the step cursor, the accumulating Result (series included), the
// firmware beneath it, the optional policy runtime, and the position
// of the optional fault schedule. Everything derived from Config —
// trace, cadences, thresholds, hardware models — is reconstructed by
// building an identical Machine first and importing into it.
//
// The contract is byte-identity: NewMachine(cfg) + ImportState(s) on
// one process must continue exactly as the machine that exported s
// would have, on either stepping backend.
type MachineState struct {
	// Step cursor.
	K         int
	Done      bool
	ExternalJ float64
	StartE    float64

	// Result accumulators (FinalMetrics is recomputed by Finish).
	Steps          int
	BrownoutSteps  int
	DeliveredJ     float64
	CircuitLossJ   float64
	BatteryLossJ   float64
	ChargedJ       float64
	DrainedAtS     float64
	ElapsedS       float64
	CellDrainedAtS []float64
	Series         *Series

	// Stack beneath the machine.
	Controller firmware.ControllerState
	// Runtime is nil when the machine runs firmware-only.
	Runtime *core.State
	// HasFaults mirrors whether a fault schedule was attached;
	// FaultsFired/FaultsRemovedJ position an identical schedule.
	HasFaults      bool
	FaultsFired    int
	FaultsRemovedJ float64
}

// ExportState snapshots the machine. The machine may keep stepping
// after the export without disturbing the snapshot. The recorded
// series are not copied: the snapshot holds capped prefix views of the
// machine's append-only series arrays and of the trace's time and load
// columns, which stepping only extends past the view's length (or
// reallocates when full), so a held snapshot never changes. The
// snapshot must be treated as read-only. Must not be called
// concurrently with Step/StepBatch.
func (m *Machine) ExportState() MachineState {
	res := m.res
	st := MachineState{
		K:              m.k,
		Done:           m.done,
		ExternalJ:      m.externalJ,
		StartE:         m.startE,
		Steps:          res.Steps,
		BrownoutSteps:  res.BrownoutSteps,
		DeliveredJ:     res.DeliveredJ,
		CircuitLossJ:   res.CircuitLossJ,
		BatteryLossJ:   res.BatteryLossJ,
		ChargedJ:       res.ChargedJ,
		DrainedAtS:     res.DrainedAtS,
		ElapsedS:       res.ElapsedS,
		CellDrainedAtS: append([]float64(nil), res.CellDrainedAtS...),
		Series:         m.view(),
		Controller:     m.cfg.Controller.ExportState(),
	}
	if m.cfg.Runtime != nil {
		rt := m.cfg.Runtime.ExportState()
		st.Runtime = &rt
	}
	if m.cfg.Faults != nil {
		st.HasFaults = true
		st.FaultsFired = m.cfg.Faults.Fired()
		st.FaultsRemovedJ = m.cfg.Faults.EnergyRemovedJ()
	}
	return st
}

// ImportState positions a freshly built Machine at a snapshot taken
// from an identically configured one (same trace, pack, profile table,
// runtime presence, fault schedule). The machine must not have stepped:
// importing refills the series arrays in place, and snapshots exported
// earlier from this machine share those arrays. The snapshot's time and
// load columns must equal, bit for bit, the ones this machine's trace
// and recording cadence determine (a *TraceMismatchError otherwise);
// the machine keeps viewing the trace's columns, not the snapshot's.
func (m *Machine) ImportState(st MachineState) error {
	switch {
	case m.k != 0 || len(m.series.DeliveredW) != 0:
		return fmt.Errorf("emulator: import: target already stepped (cursor %d, %d samples); import needs a fresh machine",
			m.k, len(m.series.DeliveredW))
	case st.K < 0 || st.K > m.steps:
		return fmt.Errorf("emulator: import: step cursor %d outside trace of %d steps", st.K, m.steps)
	case len(st.CellDrainedAtS) != m.n:
		return fmt.Errorf("emulator: import: %d cell drain times for %d cells", len(st.CellDrainedAtS), m.n)
	case st.Series == nil:
		return fmt.Errorf("emulator: import: nil series")
	case len(st.Series.SoC) != m.n:
		return fmt.Errorf("emulator: import: %d SoC series for %d cells", len(st.Series.SoC), m.n)
	case !sameLengths(st.Series):
		return fmt.Errorf("emulator: import: series columns differ in length")
	case (st.Runtime != nil) != (m.cfg.Runtime != nil):
		return fmt.Errorf("emulator: import: runtime presence mismatch (snapshot %v, config %v)",
			st.Runtime != nil, m.cfg.Runtime != nil)
	case st.HasFaults != (m.cfg.Faults != nil):
		return fmt.Errorf("emulator: import: fault schedule presence mismatch (snapshot %v, config %v)",
			st.HasFaults, m.cfg.Faults != nil)
	}
	if err := matchColumn("T", st.Series.T, m.tcol); err != nil {
		return err
	}
	if err := matchColumn("LoadW", st.Series.LoadW, m.lcol); err != nil {
		return err
	}
	if err := m.cfg.Controller.ImportState(st.Controller); err != nil {
		return err
	}
	if st.Runtime != nil {
		if err := m.cfg.Runtime.ImportState(*st.Runtime); err != nil {
			return err
		}
	}
	if m.cfg.Faults != nil {
		if err := m.cfg.Faults.RestoreState(st.FaultsFired, st.FaultsRemovedJ); err != nil {
			return err
		}
	}
	m.k = st.K
	m.done = st.Done
	m.externalJ = st.ExternalJ
	m.startE = st.StartE
	res := m.res
	res.Steps = st.Steps
	res.BrownoutSteps = st.BrownoutSteps
	res.DeliveredJ = st.DeliveredJ
	res.CircuitLossJ = st.CircuitLossJ
	res.BatteryLossJ = st.BatteryLossJ
	res.ChargedJ = st.ChargedJ
	res.DrainedAtS = st.DrainedAtS
	res.ElapsedS = st.ElapsedS
	copy(res.CellDrainedAtS, st.CellDrainedAtS)
	// Refill the preallocated series in place so the remainder of the
	// run appends without growing past NewMachine's sizing; the time and
	// load columns stay views of the trace's.
	s := m.series
	s.DeliveredW = append(s.DeliveredW[:0], st.Series.DeliveredW...)
	s.CircuitLossW = append(s.CircuitLossW[:0], st.Series.CircuitLossW...)
	s.BatteryLossW = append(s.BatteryLossW[:0], st.Series.BatteryLossW...)
	for i := range s.SoC {
		s.SoC[i] = append(s.SoC[i][:0], st.Series.SoC[i]...)
	}
	return nil
}

// TraceMismatchError is ImportState's refusal of a snapshot whose
// recorded time or load column is not the one the importing machine's
// trace and recording cadence determine: the snapshot was taken over a
// different trace or cadence, and resuming it would splice two runs.
type TraceMismatchError struct {
	Column  string // "T" or "LoadW"
	Index   int    // the first sample that differs
	Got     float64
	Want    float64 // NaN when Index is past the trace's Samples
	Samples int     // the trace's column length at the machine's cadence
}

func (e *TraceMismatchError) Error() string {
	if e.Index >= e.Samples {
		return fmt.Sprintf("emulator: import: snapshot series %s[%d] = %g, but the trace records %d samples",
			e.Column, e.Index, e.Got, e.Samples)
	}
	return fmt.Sprintf("emulator: import: snapshot series %s[%d] = %g, the trace's is %g",
		e.Column, e.Index, e.Got, e.Want)
}

// matchColumn checks a snapshot column against the prefix of the
// trace's column it must equal bit for bit.
func matchColumn(name string, got, trace []float64) error {
	for j, v := range got {
		if j >= len(trace) {
			return &TraceMismatchError{Column: name, Index: j, Got: v, Want: math.NaN(), Samples: len(trace)}
		}
		if math.Float64bits(v) != math.Float64bits(trace[j]) {
			return &TraceMismatchError{Column: name, Index: j, Got: v, Want: trace[j], Samples: len(trace)}
		}
	}
	return nil
}

// sameLengths reports whether every column of s holds as many samples
// as its time column.
func sameLengths(s *Series) bool {
	n := len(s.T)
	for _, vs := range append([][]float64{s.LoadW, s.DeliveredW, s.CircuitLossW, s.BatteryLossW}, s.SoC...) {
		if len(vs) != n {
			return false
		}
	}
	return true
}

// seriesView returns a Series of capped prefix views of s's arrays:
// an append to a view reallocates instead of writing into s.
func seriesView(s *Series) *Series {
	if s == nil {
		return nil
	}
	out := &Series{
		T:            prefix(s.T),
		LoadW:        prefix(s.LoadW),
		DeliveredW:   prefix(s.DeliveredW),
		CircuitLossW: prefix(s.CircuitLossW),
		BatteryLossW: prefix(s.BatteryLossW),
		SoC:          make([][]float64, len(s.SoC)),
	}
	for i := range s.SoC {
		out.SoC[i] = prefix(s.SoC[i])
	}
	return out
}

// prefix caps vs at its length; empty is nil, the convention decoded
// snapshots use.
func prefix(vs []float64) []float64 {
	if len(vs) == 0 {
		return nil
	}
	return vs[:len(vs):len(vs)]
}
