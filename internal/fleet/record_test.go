package fleet

import (
	"crypto/sha256"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/firmware"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/obs/ts/store"
	"sdb/internal/workload"
)

// recDevice builds the heterogeneous device config used by the
// recording tests: per-id charge and load, fixed 600 s trace so a
// 60-step tick cadence divides it exactly.
func recDevice(t *testing.T, id uint16) emulator.Config {
	t.Helper()
	soc := 0.5 + 0.4*float64(id%5)/5
	st, err := emulator.NewStack(soc, core.Options{},
		battery.MustByName("QuickCharge-2000"),
		battery.MustByName("Standard-2000"))
	if err != nil {
		t.Fatal(err)
	}
	load := 2.0 + 0.5*float64(id%3)
	return emulator.Config{
		Controller:   st.Controller,
		Trace:        workload.Constant("rec", load, 600, 1),
		PolicyEveryS: 60,
	}
}

// packSoC averages state of charge across a device's pack through the
// firmware's own status query: the oracle for the recorded soc series.
func packSoC(ctrl *firmware.Controller) (float64, error) {
	sts, err := ctrl.QueryBatteryStatus()
	if err != nil {
		return 0, err
	}
	if len(sts) == 0 {
		return 0, errors.New("empty battery status")
	}
	var sum float64
	for _, s := range sts {
		sum += s.SoC
	}
	return sum / float64(len(sts)), nil
}

// TestFleetRecording: a ticking fleet with a store attached persists
// per-device SoC and step series that match a standalone replay of the
// same device bit for bit.
func TestFleetRecording(t *testing.T) {
	const n = 6
	dir := t.TempDir()
	st, err := store.Create(filepath.Join(dir, "fleet.sdbstor"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := New(Config{Shards: 3, Batch: 64, Obs: obs.NewRegistry(), Record: st})
	defer f.Close()
	for id := uint16(0); id < n; id++ {
		if err := f.Add(id, recDevice(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	f.RunToCompletion(60)
	if err := f.RecordErr(); err != nil {
		t.Fatalf("RecordErr: %v", err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	infos := st.Series()
	if len(infos) != 2*n {
		t.Fatalf("store has %d series, want %d (soc+steps per device)", len(infos), 2*n)
	}

	// Oracle: replay device 3 standalone at the same cadence and
	// compare every barrier sample. The fleet contract says a device's
	// results are byte-identical to running alone, so the recorded
	// telemetry must be too.
	var wantT, wantSoC, wantSteps []float64
	oracleCfg := recDevice(t, 3)
	m, err := emulator.NewMachine(oracleCfg)
	if err != nil {
		t.Fatal(err)
	}
	for !m.Done() {
		if _, err := m.StepBatch(60); err != nil {
			t.Fatal(err)
		}
		soc, err := packSoC(oracleCfg.Controller)
		if err != nil {
			t.Fatal(err)
		}
		wantT = append(wantT, m.ElapsedS())
		wantSoC = append(wantSoC, soc)
		wantSteps = append(wantSteps, float64(m.StepsRun()))
	}

	socW, err := st.Query("sdb_fleet_dev3_soc", math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatalf("Query soc: %v", err)
	}
	stepsW, err := st.Query("sdb_fleet_dev3_steps", math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatalf("Query steps: %v", err)
	}
	if len(socW.Values) != len(wantT) || len(stepsW.Values) != len(wantT) {
		t.Fatalf("recorded %d soc / %d steps samples, oracle has %d",
			len(socW.Values), len(stepsW.Values), len(wantT))
	}
	if socW.FirstT != wantT[0] || socW.StepS != wantT[1]-wantT[0] {
		t.Fatalf("soc grid firstT=%g step=%g, want %g/%g",
			socW.FirstT, socW.StepS, wantT[0], wantT[1]-wantT[0])
	}
	for i := range wantT {
		if math.Float64bits(socW.Values[i]) != math.Float64bits(wantSoC[i]) {
			t.Fatalf("soc[%d] = %v, standalone replay has %v", i, socW.Values[i], wantSoC[i])
		}
		if stepsW.Values[i] != wantSteps[i] {
			t.Fatalf("steps[%d] = %v, want %v", i, stepsW.Values[i], wantSteps[i])
		}
	}

	// Survives reopen: same answers from disk.
	path := filepath.Join(dir, "fleet.sdbstor")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.Query("sdb_fleet_dev3_soc", math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range socW.Values {
		if math.Float64bits(got.Values[i]) != math.Float64bits(socW.Values[i]) {
			t.Fatalf("reopen soc[%d] changed", i)
		}
	}
}

// TestFleetRecordEvery: RecordEvery thins the cadence without breaking
// the grid.
func TestFleetRecordEvery(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Create(filepath.Join(dir, "thin.sdbstor"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	f := New(Config{Shards: 2, Batch: 32, Obs: obs.NewRegistry(), Record: st, RecordEvery: 2})
	defer f.Close()
	if err := f.Add(0, recDevice(t, 0)); err != nil {
		t.Fatal(err)
	}
	f.RunToCompletion(60) // 10 ticks of 60 s → 5 record points at 120 s spacing
	if err := f.RecordErr(); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	w, err := st.Query("sdb_fleet_dev0_soc", math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Values) != 5 || w.StepS != 120 || w.FirstT != 120 {
		t.Fatalf("thinned recording: %d samples, step %g, firstT %g; want 5/120/120",
			len(w.Values), w.StepS, w.FirstT)
	}
}

// TestFleetRecordFail: the first append failure latches RecordErr,
// names the device, and recording goes dark instead of crashing the
// tick loop. A store closed out from under the fleet is the cheapest
// way to make Append fail deterministically.
func TestFleetRecordFail(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Create(filepath.Join(dir, "dead.sdbstor"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f := New(Config{Shards: 1, Batch: 32, Obs: obs.NewRegistry(), Record: st})
	defer f.Close()
	if err := f.Add(0, recDevice(t, 0)); err != nil {
		t.Fatal(err)
	}
	f.RunToCompletion(60)
	rerr := f.RecordErr()
	if rerr == nil {
		t.Fatal("RecordErr nil after appending to a closed store")
	}
	if !strings.Contains(rerr.Error(), "device 0") {
		t.Fatalf("RecordErr does not name the device: %v", rerr)
	}
}

// TestFleetRecordErrorsCounted: a latched recording failure shows on
// the metrics plane as sdb_fleet_record_errors_total, once. The store
// already holds a later sample for device 0's soc series, so the
// fleet's first append there is non-monotone and fails.
func TestFleetRecordErrorsCounted(t *testing.T) {
	st, err := store.Create(filepath.Join(t.TempDir(), "later.sdbstor"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append("sdb_fleet_dev0_soc", ts.KindGauge, 60, 1e6, 0.5); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	f := New(Config{Shards: 1, Batch: 32, Obs: reg, Record: st})
	defer f.Close()
	if err := f.Add(0, recDevice(t, 0)); err != nil {
		t.Fatal(err)
	}
	errs := reg.Counter("sdb_fleet_record_errors_total")
	if n := errs.Value(); n != 0 {
		t.Fatalf("record errors = %v before any tick", n)
	}
	f.RunToCompletion(60)
	rerr := f.RecordErr()
	if rerr == nil || !strings.Contains(rerr.Error(), "non-monotone") {
		t.Fatalf("RecordErr = %v, want a non-monotone append", rerr)
	}
	if n := errs.Value(); n != 1 {
		t.Fatalf("record errors = %v, want 1", n)
	}
}

// TestFleetRecordingSkipsDrained: a device whose trace drains early
// stops producing samples while the rest of the fleet records on.
func TestFleetRecordingSkipsDrained(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Create(filepath.Join(dir, "mix.sdbstor"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	f := New(Config{Shards: 2, Batch: 32, Obs: obs.NewRegistry(), Record: st})
	defer f.Close()
	long := recDevice(t, 0) // 600 s trace
	short := recDevice(t, 1)
	short.Trace = workload.Constant("rec", 2.0, 300, 1) // drains halfway
	if err := f.Add(0, long); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(1, short); err != nil {
		t.Fatal(err)
	}
	f.RunToCompletion(60)
	if err := f.RecordErr(); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	wLong, err := st.Query("sdb_fleet_dev0_soc", math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	wShort, err := st.Query("sdb_fleet_dev1_soc", math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(wLong.Values) != 10 || len(wShort.Values) != 5 {
		t.Fatalf("recorded %d long / %d short samples, want 10/5",
			len(wLong.Values), len(wShort.Values))
	}
}

// TestFleetRecordingBytesDeterministic: recording walks the registry in
// id order, so a seeded fleet writes the same store file at every shard
// count and on every rerun. The alert rules put their rollup series in
// the file too.
func TestFleetRecordingBytesDeterministic(t *testing.T) {
	run := func(shards int) [sha256.Size]byte {
		path := filepath.Join(t.TempDir(), "fleet.sdbstor")
		st, err := store.Create(path, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		f := New(Config{Shards: shards, Batch: 32, Obs: obs.NewRegistry(), Rules: alertRules(t), Record: st})
		for id := uint16(0); id < 40; id++ {
			if err := f.Add(id, deviceConfig(t, id, 600)); err != nil {
				t.Fatal(err)
			}
		}
		f.RunToCompletion(64)
		f.Close()
		if err := f.RecordErr(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(readFile(t, path))
	}
	want := run(1)
	for _, shards := range []int{2, 4, 2} {
		if got := run(shards); got != want {
			t.Fatalf("store SHA-256 at %d shards = %x, want %x (1 shard)", shards, got, want)
		}
	}
}
