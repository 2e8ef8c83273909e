package fleet

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/obs/ts/store"
	"sdb/internal/workload"
)

// deviceConfig builds a deterministic per-id device: initial charge
// and load vary with the id so no two neighboring devices share state
// trajectories, and every third device runs the full policy runtime.
// Building the same id twice yields independent stacks with identical
// parameters — the basis of every byte-identity comparison here.
func deviceConfig(t testing.TB, id uint16, durS float64) emulator.Config {
	t.Helper()
	soc := 0.4 + 0.6*float64(id%50)/50
	load := 1 + 0.4*float64(id%7)
	st, err := emulator.NewStack(soc, core.Options{},
		battery.MustByName("QuickCharge-2000"),
		battery.MustByName("Standard-2000"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := emulator.Config{
		Controller:   st.Controller,
		Trace:        workload.Constant(fmt.Sprintf("dev-%d", id), load, durS, 1),
		PolicyEveryS: 60,
	}
	if id%3 == 0 {
		cfg.Runtime = st.Runtime
	}
	return cfg
}

// TestFleetSoakByteIdentical is the fleet-scale determinism soak: N
// devices sharded 1, 4, and 7 ways must each produce a Result deeply
// equal to running the identical config alone, and the fleet must
// account for every step. This is the core multi-tenancy guarantee —
// shard scheduling, batching, and neighbors can never bleed into a
// device's physics.
func TestFleetSoakByteIdentical(t *testing.T) {
	const durS = 600
	n := soakDevices
	want := make([]*emulator.Result, n+1)
	for i := 1; i <= n; i++ {
		res, err := emulator.Run(deviceConfig(t, uint16(i), durS))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, shards := range []int{1, 4, 7} {
		f := New(Config{Shards: shards, Batch: 37, Obs: obs.NewRegistry()})
		for i := 1; i <= n; i++ {
			if err := f.Add(uint16(i), deviceConfig(t, uint16(i), durS)); err != nil {
				t.Fatal(err)
			}
		}
		f.RunToCompletion(64)
		for i := 1; i <= n; i++ {
			got, err := f.Result(uint16(i))
			if err != nil {
				t.Fatalf("shards=%d device %d: %v", shards, i, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("shards=%d: device %d diverged from its solo run", shards, i)
			}
		}
		if st := f.Stat(); st.Steps != uint64(n)*durS {
			t.Fatalf("shards=%d: fleet stepped %d, want %d", shards, st.Steps, uint64(n)*durS)
		}
		f.Close()
	}
}

// TestFleetBackends pins the two stepping paths inside one fleet:
// every shard has a struct-of-arrays engine with every eligible device
// checked out into its lanes, an ineligible device (an instrumented
// one) steps through the scalar fallback on the same shard, and every
// device finishes deeply equal to its solo run.
func TestFleetBackends(t *testing.T) {
	const n, durS = 40, 300
	cfgFor := func(id uint16) emulator.Config {
		cfg := deviceConfig(t, id, durS)
		if id == n+1 {
			cfg.Obs = obs.NewRegistry()
		}
		return cfg
	}
	f := New(Config{Shards: 3, Batch: 37, Obs: obs.NewRegistry()})
	defer f.Close()
	for i := 1; i <= n+1; i++ {
		if err := f.Add(uint16(i), cfgFor(uint16(i))); err != nil {
			t.Fatal(err)
		}
	}
	var lanes int
	for _, s := range f.shards {
		lanes += s.eng.Len()
	}
	if lanes != 2*n {
		// Two cells per device: every eligible device must actually be
		// checked out, or the soaks would silently validate the scalar
		// path; the instrumented one must not be.
		t.Fatalf("batch engines hold %d lanes, want %d", lanes, 2*n)
	}
	f.RunToCompletion(64)
	for i := 1; i <= n+1; i++ {
		want, err := emulator.Run(cfgFor(uint16(i)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Result(uint16(i))
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("device %d diverged from its solo run", i)
		}
	}
}

func TestFleetRegistry(t *testing.T) {
	f := New(Config{Shards: 3, Obs: obs.NewRegistry()})
	defer f.Close()
	for _, id := range []uint16{5, 0, 9} {
		if err := f.Add(id, deviceConfig(t, id, 60)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Add(5, deviceConfig(t, 5, 60)); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if got := f.IDs(); !reflect.DeepEqual(got, []uint16{0, 5, 9}) {
		t.Fatalf("IDs() = %v, want sorted [0 5 9]", got)
	}
	if f.Controller(5) == nil || f.Controller(77) != nil {
		t.Fatal("Controller lookup wrong")
	}
	if !f.Remove(5) || f.Remove(5) {
		t.Fatal("Remove semantics wrong")
	}
	if f.Len() != 2 {
		t.Fatalf("Len() = %d after remove", f.Len())
	}
	st := f.Stat()
	if st.Devices != 2 || st.Shards != 3 || st.Churn != 4 {
		t.Fatalf("Stat() = %+v, want 2 devices, 3 shards, churn 4 (3 adds + 1 remove)", st)
	}
	if _, err := f.Result(5); err == nil {
		t.Fatal("Result for removed device succeeded")
	}
	if f.Err(77) == nil {
		t.Fatal("Err for unknown device nil")
	}
}

// TestFleetInvalidDeviceConfig: a config NewMachine rejects never
// enters the registry.
func TestFleetInvalidDeviceConfig(t *testing.T) {
	f := New(Config{Shards: 1, Obs: obs.NewRegistry()})
	defer f.Close()
	if err := f.Add(1, emulator.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if f.Len() != 0 {
		t.Fatal("failed Add left a device behind")
	}
}

// TestFleetPartialTicks: ticking less than a full trace leaves devices
// running; Result mid-trace snapshots; later ticks finish them.
func TestFleetPartialTicks(t *testing.T) {
	f := New(Config{Shards: 2, Batch: 16, Obs: obs.NewRegistry()})
	defer f.Close()
	for i := 1; i <= 5; i++ {
		if err := f.Add(uint16(i), deviceConfig(t, uint16(i), 300)); err != nil {
			t.Fatal(err)
		}
	}
	if active := f.Tick(100); active != 5 {
		t.Fatalf("after 100/300 steps, %d active, want 5", active)
	}
	if st := f.Stat(); st.Steps != 500 {
		t.Fatalf("Stat().Steps = %d, want 500", st.Steps)
	}
	f.RunToCompletion(128)
	res, err := f.Result(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 300 {
		t.Fatalf("device 3 ran %d steps, want 300", res.Steps)
	}
	if st := f.Stat(); st.DeviceStepsPerSec <= 0 {
		t.Fatalf("Stat().DeviceStepsPerSec = %g, want > 0", st.DeviceStepsPerSec)
	}
}

// TestFleetObsNames pins the published metric names so dashboards and
// the recorder can rely on them.
func TestFleetObsNames(t *testing.T) {
	reg := obs.NewRegistry()
	f := New(Config{Shards: 2, Obs: reg})
	defer f.Close()
	if err := f.Add(1, deviceConfig(t, 1, 60)); err != nil {
		t.Fatal(err)
	}
	f.RunToCompletion(0)
	want := []string{
		"sdb_fleet_devices",
		"sdb_fleet_device_churn_total",
		"sdb_fleet_steps_total",
		"sdb_fleet_device_steps_per_sec",
		"sdb_fleet_cmd_seconds",
		"sdb_fleet_shard0_batch_seconds",
		"sdb_fleet_shard1_batch_seconds",
	}
	have := map[string]bool{}
	for _, fam := range reg.Snapshot() {
		have[fam.Name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("metric %s not registered", name)
		}
	}
}

// TestBarrierPhaseHistograms: with every barrier phase doing work each
// tick — alert rules, recording, and an auto-checkpoint every tick —
// Tick observes each sdb_fleet_barrier_<phase>_seconds histogram
// exactly once.
func TestBarrierPhaseHistograms(t *testing.T) {
	rules, err := ts.ParseRules("alert busy steps >= 1")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Create(filepath.Join(dir, "phases.sdbstor"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.NewRegistry()
	f := New(Config{
		Shards: 1, Obs: reg, Rules: rules, Record: st,
		Checkpoint: filepath.Join(dir, "phases.ckpt"), CheckpointEvery: 1,
	})
	defer f.Close()
	if err := f.Add(1, deviceConfig(t, 1, 300)); err != nil {
		t.Fatal(err)
	}
	for tick := int64(1); tick <= 4; tick++ {
		f.Tick(10)
		for _, name := range phaseNames {
			h := reg.Histogram("sdb_fleet_barrier_"+name+"_seconds", nil)
			if got := h.Count(); got != tick {
				t.Fatalf("after tick %d: %s observed %d times", tick, name, got)
			}
		}
	}
	if err := f.RecordErr(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("sdb_fleet_checkpoint_errors_total").Value(); n != 0 {
		t.Fatalf("%d checkpoint errors", n)
	}
}
