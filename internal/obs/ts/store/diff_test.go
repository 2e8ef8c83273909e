package store

// Differential battery: one full faulty-day chaos run — square-wave
// load, both cells forced open mid-day, policy ladder descending and
// recovering — is recorded simultaneously into the in-memory ring
// recorder and this on-disk store. The rings are the oracle: every
// store Query over any window must reproduce the ring samples bit for
// bit, and must keep doing so after a reopen from disk.

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/faults"
	"sdb/internal/firmware"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/workload"
)

// faultyDay runs the chaos day with a recorder (sampling into sink)
// attached, returning the run result and the recorder.
func faultyDay(t *testing.T, sink ts.Sink) (*emulator.Result, *ts.Recorder) {
	t.Helper()
	dayS := 6 * 3600.0
	if testing.Short() {
		dayS = 2 * 3600.0
	}
	trace := workload.Square("diff-day", 0.15, 0.9, 3600, 0.35, dayS, 1.0)
	reg := obs.NewRegistry()

	a := battery.MustNew(battery.MustByName("QuickCharge-2000"))
	b := battery.MustNew(battery.MustByName("Standard-2000"))
	pack := battery.MustNewPack(a, b)
	pcfg := firmware.DefaultConfig(pack)
	pcfg.Obs = reg
	ctrl, err := firmware.NewController(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(ctrl, core.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	rec := ts.NewRecorder(reg, ts.Config{StepS: 60, Retain: 8192, Sink: sink})
	closeAt := dayS - 600
	openAt := closeAt - 1200
	cfg := emulator.Config{
		Controller:   ctrl,
		Runtime:      rt,
		Trace:        trace,
		PolicyEveryS: 60,
		RecordEveryS: 60,
		Obs:          reg,
		Recorder:     rec,
		Faults: faults.NewSchedule(
			faults.CellEvent{AtS: openAt, Cell: 0, Kind: faults.FaultOpenCircuit},
			faults.CellEvent{AtS: openAt, Cell: 1, Kind: faults.FaultOpenCircuit},
			faults.CellEvent{AtS: closeAt, Cell: 0, Kind: faults.FaultCloseCircuit},
			faults.CellEvent{AtS: closeAt, Cell: 1, Kind: faults.FaultCloseCircuit},
		),
	}
	res, err := emulator.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

// TestDifferentialChaosDay is the tentpole differential suite.
func TestDifferentialChaosDay(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(filepath.Join(dir, "day.sdbstor"), Options{})
	if err != nil {
		t.Fatal(err)
	}

	res, rec := faultyDay(t, st)
	if res.BrownoutSteps == 0 {
		t.Fatal("fault window produced no brownouts — this is not the chaos day")
	}
	if err := rec.SinkErr(); err != nil {
		t.Fatalf("sink failed during the run: %v", err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	windows := rec.Windows()
	if len(windows) < 20 {
		t.Fatalf("only %d series recorded; the instrumented stack emits more", len(windows))
	}
	compareStoreToRings(t, st, windows, "live store")

	// Random sub-windows per series: interior slices match too.
	rng := rand.New(rand.NewSource(42))
	for _, w := range windows {
		if len(w.Values) < 4 {
			continue
		}
		for k := 0; k < 3; k++ {
			i := rng.Intn(len(w.Values) - 1)
			j := i + 1 + rng.Intn(len(w.Values)-i-1)
			t0 := w.FirstT + float64(i)*w.StepS
			t1 := w.FirstT + float64(j)*w.StepS
			got, err := st.Query(w.Name, t0, t1)
			if err != nil {
				t.Fatalf("Query(%s, %g, %g): %v", w.Name, t0, t1, err)
			}
			wantValues(t, got, t0, w.Values[i:j+1]...)
		}
	}

	// Reopen from disk: still identical.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(filepath.Join(dir, "day.sdbstor"))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	compareStoreToRings(t, r, windows, "reopened store")
}

// compareStoreToRings requires every ring window to read back from the
// store bit-identically over its full span.
func compareStoreToRings(t *testing.T, s *Store, windows []ts.Window, what string) {
	t.Helper()
	infos := s.Series()
	if len(infos) != len(windows) {
		t.Fatalf("%s: %d series, rings have %d", what, len(infos), len(windows))
	}
	for _, w := range windows {
		if w.Total != uint64(len(w.Values)) {
			t.Fatalf("%s: ring %s evicted samples (total %d, retained %d) — grow Retain, the oracle must be complete",
				what, w.Name, w.Total, len(w.Values))
		}
		got, err := s.Query(w.Name, math.Inf(-1), math.Inf(1))
		if err != nil {
			t.Fatalf("%s: Query(%s): %v", what, w.Name, err)
		}
		if got.Kind != w.Kind || got.StepS != w.StepS {
			t.Fatalf("%s: %s metadata kind=%v step=%g, want %v/%g", what, w.Name, got.Kind, got.StepS, w.Kind, w.StepS)
		}
		wantValues(t, got, w.FirstT, w.Values...)
	}
}
