package emulator

import (
	"reflect"
	"strings"
	"testing"

	"sdb/internal/core"
	"sdb/internal/faults"
	"sdb/internal/workload"
)

// stateTestConfig builds the canonical checkpointable machine: two
// cells, policy runtime, and a fault schedule, so an export carries
// every optional block.
func stateTestConfig(t *testing.T, durS float64, withRuntime, withFaults bool) Config {
	t.Helper()
	st := twoCellStack(t, 0.7, core.Options{})
	cfg := Config{
		Controller:   st.Controller,
		Trace:        workload.Constant("state", 1.6, durS, 1),
		PolicyEveryS: 60,
	}
	if withRuntime {
		cfg.Runtime = st.Runtime
	}
	if withFaults {
		cfg.Faults = faults.NewSchedule(
			faults.CellEvent{AtS: 40, Cell: 1, Kind: faults.FaultOpenCircuit},
			faults.CellEvent{AtS: 80, Cell: 1, Kind: faults.FaultCloseCircuit},
			faults.CellEvent{AtS: 500, Cell: 0, Kind: faults.FaultCapacityFade, Fraction: 0.92},
		)
	}
	return cfg
}

// TestExportImportByteIdentical is the machine-level checkpoint
// contract: run partway, export, import into a freshly built machine,
// and finish both — Finish results (series, metrics, everything) must
// be deeply equal. Exercised with and without the optional runtime and
// fault blocks.
func TestExportImportByteIdentical(t *testing.T) {
	const durS = 600
	cases := []struct {
		name                    string
		withRuntime, withFaults bool
	}{
		{"bare", false, false},
		{"runtime", true, false},
		{"faults", false, true},
		{"runtime+faults", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig, err := NewMachine(stateTestConfig(t, durS, tc.withRuntime, tc.withFaults))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := orig.StepBatch(250); err != nil {
				t.Fatal(err)
			}
			snap := orig.ExportState()

			// The export shares the series arrays but never changes:
			// keep stepping the original and re-export — the first
			// snapshot must be unchanged.
			if _, err := orig.StepBatch(50); err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(orig.ExportState(), snap) {
				t.Fatal("machine stepped 50 more but exports compare equal")
			}

			fresh, err := NewMachine(stateTestConfig(t, durS, tc.withRuntime, tc.withFaults))
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.ImportState(snap); err != nil {
				t.Fatal(err)
			}
			// Round-trip: the imported machine re-exports the same state.
			if got := fresh.ExportState(); !reflect.DeepEqual(got, snap) {
				t.Fatal("import then export changed the state")
			}
			for !fresh.Done() {
				if _, err := fresh.StepBatch(64); err != nil {
					t.Fatal(err)
				}
			}
			for !orig.Done() {
				if _, err := orig.StepBatch(64); err != nil {
					t.Fatal(err)
				}
			}
			want, err := orig.Finish()
			if err != nil {
				t.Fatal(err)
			}
			got, err := fresh.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("restored machine diverged from the original")
			}
		})
	}
}

// TestImportStateRejectsMismatches: every structural mismatch between
// a snapshot and the machine it is imported into must be rejected with
// a descriptive error — importing would silently corrupt physics.
func TestImportStateRejectsMismatches(t *testing.T) {
	const durS = 300
	donor, err := NewMachine(stateTestConfig(t, durS, true, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.StepBatch(100); err != nil {
		t.Fatal(err)
	}
	good := donor.ExportState()

	fresh := func() *Machine {
		m, err := NewMachine(stateTestConfig(t, durS, true, true))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name     string
		mutate   func(st *MachineState)
		mkTarget func() *Machine
		contains string
	}{
		{"cursor past trace", func(st *MachineState) { st.K = int(durS) + 1 }, fresh, "step cursor"},
		{"negative cursor", func(st *MachineState) { st.K = -1 }, fresh, "step cursor"},
		{"drain times wrong length", func(st *MachineState) { st.CellDrainedAtS = st.CellDrainedAtS[:1] }, fresh, "cell drain times"},
		{"nil series", func(st *MachineState) { st.Series = nil }, fresh, "nil series"},
		{"series cell count", func(st *MachineState) {
			s := *st.Series
			s.SoC = s.SoC[:1]
			st.Series = &s
		}, fresh, "SoC series"},
		{"runtime presence", func(st *MachineState) { st.Runtime = nil }, fresh, "runtime presence"},
		{"faults presence", func(st *MachineState) { st.HasFaults = false }, fresh, "fault schedule presence"},
		{"faults fired out of range", func(st *MachineState) { st.FaultsFired = 99 }, fresh, "fired events"},
		{"target already stepped", func(st *MachineState) {}, func() *Machine {
			m := fresh()
			if _, err := m.StepBatch(10); err != nil {
				t.Fatal(err)
			}
			return m
		}, "target already stepped"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := good
			tc.mutate(&st)
			err := tc.mkTarget().ImportState(st)
			if err == nil || !strings.Contains(err.Error(), tc.contains) {
				t.Fatalf("ImportState = %v, want error containing %q", err, tc.contains)
			}
		})
	}
}

// TestSeriesViewNil: a machine built without series recording exports
// a nil Series pointer cleanly.
func TestSeriesViewNil(t *testing.T) {
	if seriesView(nil) != nil {
		t.Fatal("seriesView(nil) != nil")
	}
}
