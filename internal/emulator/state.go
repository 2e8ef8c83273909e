package emulator

import (
	"fmt"

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
	// TraceHash is workload.Trace.Hash of the trace the machine runs,
	// at its recording stride: the series' time and load are the
	// trace's, so a state is only valid over that trace and stride.
	TraceHash uint64

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
// machine's append-only series arrays, which stepping only extends
// past the view's length (or reallocates when full), so a held
// snapshot never changes. The snapshot must be treated as read-only.
// Must not be called concurrently with Step/StepBatch.
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
		Series:         seriesView(m.series),
		TraceHash:      m.cfg.Trace.Hash(m.recordEvery),
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
// earlier from this machine share those arrays. The snapshot must have
// been taken over this machine's trace at its recording stride, and
// hold the samples that stride records in st.K steps; a
// *TraceMismatchError refuses it otherwise.
func (m *Machine) ImportState(st MachineState) error {
	if m.k != 0 || len(m.series.DeliveredW) != 0 {
		return fmt.Errorf("emulator: import: target already stepped (cursor %d, %d samples); import needs a fresh machine",
			m.k, len(m.series.DeliveredW))
	}
	if want := m.cfg.Trace.Hash(m.recordEvery); st.TraceHash != want {
		return &TraceMismatchError{Hash: st.TraceHash, WantHash: want}
	}
	switch {
	case st.K < 0 || st.K > m.steps:
		return fmt.Errorf("emulator: import: step cursor %d outside trace of %d steps", st.K, m.steps)
	case len(st.CellDrainedAtS) != m.n:
		return fmt.Errorf("emulator: import: %d cell drain times for %d cells", len(st.CellDrainedAtS), m.n)
	case st.Series == nil:
		return fmt.Errorf("emulator: import: nil series")
	case len(st.Series.SoC) != m.n:
		return fmt.Errorf("emulator: import: %d SoC series for %d cells", len(st.Series.SoC), m.n)
	case st.Series.Len() < 0:
		return fmt.Errorf("emulator: import: series columns differ in length")
	case st.Series.Len() != m.samplesAt(st.K):
		return &TraceMismatchError{Hash: st.TraceHash, WantHash: st.TraceHash,
			K: st.K, Samples: st.Series.Len(), WantSamples: m.samplesAt(st.K)}
	case (st.Runtime != nil) != (m.cfg.Runtime != nil):
		return fmt.Errorf("emulator: import: runtime presence mismatch (snapshot %v, config %v)",
			st.Runtime != nil, m.cfg.Runtime != nil)
	case st.HasFaults != (m.cfg.Faults != nil):
		return fmt.Errorf("emulator: import: fault schedule presence mismatch (snapshot %v, config %v)",
			st.HasFaults, m.cfg.Faults != nil)
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
	// run appends without growing past NewMachine's sizing.
	s := m.series
	s.DeliveredW = append(s.DeliveredW[:0], st.Series.DeliveredW...)
	s.CircuitLossW = append(s.CircuitLossW[:0], st.Series.CircuitLossW...)
	s.BatteryLossW = append(s.BatteryLossW[:0], st.Series.BatteryLossW...)
	for i := range s.SoC {
		s.SoC[i] = append(s.SoC[i][:0], st.Series.SoC[i]...)
	}
	return nil
}

// TraceMismatchError is ImportState's refusal of a snapshot taken over
// a different trace or recording stride than the importing machine's:
// resuming it would splice two runs. Either the trace hashes differ, or
// they agree but the snapshot holds the wrong number of samples for its
// step cursor.
type TraceMismatchError struct {
	Hash, WantHash       uint64 // the snapshot's and the machine's workload.Trace.Hash
	K                    int    // the snapshot's step cursor
	Samples, WantSamples int    // the snapshot's series samples, and the K steps' at the machine's stride
}

func (e *TraceMismatchError) Error() string {
	if e.Hash != e.WantHash {
		return fmt.Sprintf("emulator: import: trace mismatch: the snapshot was taken over trace hash %016x, this machine's trace and recording stride hash to %016x",
			e.Hash, e.WantHash)
	}
	return fmt.Sprintf("emulator: import: trace mismatch: the snapshot holds %d series samples after %d steps, this machine's recording stride records %d",
		e.Samples, e.K, e.WantSamples)
}

// Len returns the number of samples every column of s holds, or -1
// when their lengths differ.
func (s *Series) Len() int {
	n := len(s.DeliveredW)
	ok := len(s.CircuitLossW) == n && len(s.BatteryLossW) == n
	for _, vs := range s.SoC {
		ok = ok && len(vs) == n
	}
	if !ok {
		return -1
	}
	return n
}

// seriesView returns a Series of capped prefix views of s's arrays:
// an append to a view reallocates instead of writing into s.
func seriesView(s *Series) *Series {
	if s == nil {
		return nil
	}
	out := &Series{
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
