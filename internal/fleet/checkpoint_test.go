package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/fleet/snapshot"
	"sdb/internal/obs"
	"sdb/internal/workload"
)

// provision adapts deviceConfig into the restore hook: the same
// deterministic per-id builder a production deployment would register.
func provision(t testing.TB, durS float64) func(uint16) (emulator.Config, error) {
	return func(id uint16) (emulator.Config, error) {
		return deviceConfig(t, id, durS), nil
	}
}

// TestCheckpointRestoreByteIdentical is the durability half of the
// fleet contract: stop a fleet mid-run, checkpoint it, rebuild from
// the file — the restored fleet must finish byte-identical to each
// device's uninterrupted solo run, on both stepping backends, even
// when the restored fleet uses different shard and batch sizing.
func TestCheckpointRestoreByteIdentical(t *testing.T) {
	const durS = 600
	const n = 40
	want := make([]*emulator.Result, n+1)
	for i := 1; i <= n; i++ {
		res, err := emulator.Run(deviceConfig(t, uint16(i), durS))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, backend := range []string{"soa", "scalar"} {
		t.Run(backend, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fleet.ckpt")
			f := New(Config{Shards: 4, Batch: 37, Backend: backend, Obs: obs.NewRegistry()})
			for i := 1; i <= n; i++ {
				if err := f.Add(uint16(i), deviceConfig(t, uint16(i), durS)); err != nil {
					t.Fatal(err)
				}
			}
			// Interrupt mid-run at an uneven boundary: 5 ticks of 64
			// leaves every device mid-trace with partial batches behind it.
			for i := 0; i < 5; i++ {
				f.Tick(64)
			}
			if _, err := f.WriteCheckpoint(path); err != nil {
				t.Fatal(err)
			}
			f.Close()

			// Restore with different pool sizing: the snapshot carries
			// device state, not scheduling.
			g, err := RestoreFile(path, Config{
				Shards: 3, Batch: 51, Backend: backend,
				Obs: obs.NewRegistry(), Provision: provision(t, durS),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			if g.Len() != n {
				t.Fatalf("restored %d devices, want %d", g.Len(), n)
			}
			g.RunToCompletion(64)
			for i := 1; i <= n; i++ {
				got, err := g.Result(uint16(i))
				if err != nil {
					t.Fatalf("device %d after restore: %v", i, err)
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("backend %s: device %d diverged after checkpoint/restore", backend, i)
				}
			}
			if st := g.Stat(); st.Steps != uint64(n)*durS {
				t.Fatalf("restored fleet stepped %d total, want %d", st.Steps, uint64(n)*durS)
			}
		})
	}
}

// TestCheckpointSoakByteIdentical is the at-scale acceptance bar:
// checkpoint/restore identity must hold race-clean at the full soak
// size on the default backend.
func TestCheckpointSoakByteIdentical(t *testing.T) {
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
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	f := New(Config{Shards: 7, Batch: 37, Obs: obs.NewRegistry()})
	for i := 1; i <= n; i++ {
		if err := f.Add(uint16(i), deviceConfig(t, uint16(i), durS)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		f.Tick(64)
	}
	if _, err := f.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, err := RestoreFile(path, Config{
		Shards: 4, Batch: 64, Obs: obs.NewRegistry(), Provision: provision(t, durS),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.RunToCompletion(64)
	for i := 1; i <= n; i++ {
		got, err := g.Result(uint16(i))
		if err != nil {
			t.Fatalf("device %d after restore: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("device %d diverged after checkpoint/restore at soak scale", i)
		}
	}
}

// TestRestoreAllChemistries is the property test over the full cell
// library: for every chemistry, a device built from a two-cell pack of
// it must survive a mid-run checkpoint/restore cycle byte-identically.
// Chemistry-specific state (OCV shape, fade, thermal mass) all lives
// in battery.CellState — this catches any field the codec forgets.
func TestRestoreAllChemistries(t *testing.T) {
	const durS = 400
	lib := battery.Library()
	if len(lib) < 10 {
		t.Fatalf("battery library shrank to %d chemistries", len(lib))
	}
	mkCfg := func(p battery.Params, withRuntime bool) emulator.Config {
		// Packs reject duplicate cell names: pair each chemistry with a
		// fixed different partner.
		partner := battery.MustByName("Standard-2000")
		if p.Name == partner.Name {
			partner = battery.MustByName("QuickCharge-2000")
		}
		st, err := emulator.NewStack(0.55, core.Options{}, p, partner)
		if err != nil {
			t.Fatal(err)
		}
		cfg := emulator.Config{
			Controller:   st.Controller,
			Trace:        workload.Constant("chem-"+p.Name, 1.1, durS, 1),
			PolicyEveryS: 60,
		}
		if withRuntime {
			cfg.Runtime = st.Runtime
		}
		return cfg
	}
	for ci, p := range lib {
		withRuntime := ci%2 == 0
		want, err := emulator.Run(mkCfg(p, withRuntime))
		if err != nil {
			t.Fatalf("%s: solo run: %v", p.Name, err)
		}
		f := New(Config{Shards: 1, Batch: 29, Obs: obs.NewRegistry()})
		if err := f.Add(1, mkCfg(p, withRuntime)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			f.Tick(47)
		}
		snap := f.Snapshot()
		f.Close()
		g, err := FromSnapshot(snap, Config{
			Shards: 1, Obs: obs.NewRegistry(),
			Provision: func(id uint16) (emulator.Config, error) { return mkCfg(p, withRuntime), nil },
		})
		if err != nil {
			t.Fatalf("%s: restore: %v", p.Name, err)
		}
		g.RunToCompletion(64)
		got, err := g.Result(1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chemistry %s diverged after checkpoint/restore", p.Name)
		}
		g.Close()
	}
}

// TestHeldSnapshotIsStable: a snapshot shares its devices' series
// arrays rather than copying them, so one held while the fleet keeps
// ticking must still encode to the bytes it had when taken.
func TestHeldSnapshotIsStable(t *testing.T) {
	f := New(Config{Shards: 3, Batch: 16, Obs: obs.NewRegistry()})
	defer f.Close()
	for i := 1; i <= 12; i++ {
		if err := f.Add(uint16(i), deviceConfig(t, uint16(i), 300)); err != nil {
			t.Fatal(err)
		}
	}
	f.Tick(40)
	snap := f.Snapshot()
	var before bytes.Buffer
	if err := snapshot.Encode(&before, snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f.Tick(40)
	}
	var after bytes.Buffer
	if err := snapshot.Encode(&after, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("held snapshot changed while the fleet ticked")
	}
	var now bytes.Buffer
	if err := f.Checkpoint(&now); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(now.Bytes(), before.Bytes()) {
		t.Fatal("fleet ticked 3 more times but checkpoints compare equal")
	}
}

// TestAutoCheckpoint: with Checkpoint/CheckpointEvery configured, the
// fleet writes the file from its own tick barrier — and the file is a
// valid, restorable snapshot of a tick boundary.
func TestAutoCheckpoint(t *testing.T) {
	const durS = 600
	path := filepath.Join(t.TempDir(), "auto.ckpt")
	f := New(Config{
		Shards: 2, Obs: obs.NewRegistry(),
		Checkpoint: path, CheckpointEvery: 2,
	})
	defer f.Close()
	for i := 1; i <= 6; i++ {
		if err := f.Add(uint16(i), deviceConfig(t, uint16(i), durS)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("checkpoint file exists before any tick")
	}
	f.Tick(10)
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("checkpoint written before CheckpointEvery ticks elapsed")
	}
	f.Tick(10)
	snap, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatalf("no valid checkpoint after %d ticks: %v", 2, err)
	}
	if snap.FleetSteps != 6*20 || len(snap.Devices) != 6 {
		t.Fatalf("auto checkpoint captured steps=%d devices=%d", snap.FleetSteps, len(snap.Devices))
	}
	// The counter resets: two more ticks write again, now at 40 steps each.
	f.Tick(10)
	f.Tick(10)
	snap, err = snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.FleetSteps != 6*40 {
		t.Fatalf("second auto checkpoint at fleet steps %d, want %d", snap.FleetSteps, 6*40)
	}
}

// TestAutoCheckpointErrorIsSurvivable: an unwritable checkpoint path
// must not fail ticking — the error is counted and traced, stepping
// continues.
func TestAutoCheckpointErrorIsSurvivable(t *testing.T) {
	reg := obs.NewRegistry()
	f := New(Config{
		Shards: 1, Obs: reg,
		Checkpoint:      filepath.Join(t.TempDir(), "no", "such", "dir", "x.ckpt"),
		CheckpointEvery: 1,
	})
	defer f.Close()
	if err := f.Add(1, deviceConfig(t, 1, 300)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if n := f.Tick(10); n == 0 {
			t.Fatal("tick stalled on checkpoint error")
		}
	}
	if v := reg.Counter("sdb_fleet_checkpoint_errors_total").Value(); v < 3 {
		t.Fatalf("checkpoint errors counted %v, want >= 3", v)
	}
}

// TestRestoreErrors pins the failure modes: no Provision hook, a
// Provision that rejects an id, and a corrupt file must all error
// (and never leak a half-built fleet's goroutines — verified by the
// race detector and goroutine accounting in -race runs).
func TestRestoreErrors(t *testing.T) {
	f := New(Config{Shards: 1, Obs: obs.NewRegistry()})
	if err := f.Add(1, deviceConfig(t, 1, 60)); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot()
	f.Close()

	if _, err := FromSnapshot(snap, Config{Obs: obs.NewRegistry()}); err == nil {
		t.Fatal("restore without Provision succeeded")
	}
	_, err := FromSnapshot(snap, Config{
		Obs: obs.NewRegistry(),
		Provision: func(id uint16) (emulator.Config, error) {
			return emulator.Config{}, fmt.Errorf("unknown id %d", id)
		},
	})
	if err == nil {
		t.Fatal("restore with failing Provision succeeded")
	}

	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreFile(path, Config{Obs: obs.NewRegistry(), Provision: provision(t, 60)}); err == nil {
		t.Fatal("restore from corrupt file succeeded")
	}
	if _, err := RestoreFile(filepath.Join(t.TempDir(), "missing"), Config{Obs: obs.NewRegistry(), Provision: provision(t, 60)}); err == nil {
		t.Fatal("restore from missing file succeeded")
	}
}

// TestRestoreCarriesTombstones: quarantined devices survive a
// checkpoint as id+reason tombstones; restoring brings them back
// quarantined — still fenced off, still visible in Stat and
// Quarantined(), with their reason preserved in Result's error.
func TestRestoreCarriesTombstones(t *testing.T) {
	const durS = 300
	f := New(Config{Shards: 2, Obs: obs.NewRegistry()})
	for i := 1; i <= 4; i++ {
		if err := f.Add(uint16(i), deviceConfig(t, uint16(i), durS)); err != nil {
			t.Fatal(err)
		}
	}
	f.Tick(32)
	snap := f.Snapshot()
	f.Close()
	// Splice in a tombstone as the snapshot of a fleet whose device 9
	// panicked before this checkpoint.
	snap.Devices = append(snap.Devices, snapshot.Device{
		ID: 9, Quarantined: true, QuarantineReason: "device-panic: cell 0 at t=12s",
	})

	g, err := FromSnapshot(snap, Config{
		Shards: 2, Obs: obs.NewRegistry(), Provision: provision(t, durS),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if got := g.Quarantined(); len(got) != 1 || got[0] != 9 {
		t.Fatalf("Quarantined() = %v after restore, want [9]", got)
	}
	if st := g.Stat(); st.Quarantined != 1 {
		t.Fatalf("Stat().Quarantined = %d, want 1", st.Quarantined)
	}
	g.RunToCompletion(64)
	if _, err := g.Result(9); err == nil {
		t.Fatal("quarantined device produced a result after restore")
	} else if !strings.Contains(err.Error(), "device-panic: cell 0 at t=12s") {
		t.Fatalf("quarantine reason lost across restore: %v", err)
	}
	// Healthy neighbors finished normally.
	for i := 1; i <= 4; i++ {
		if _, err := g.Result(uint16(i)); err != nil {
			t.Fatalf("healthy device %d after tombstone restore: %v", i, err)
		}
	}
}

// TestDrainWritesFinalCheckpoint: Drain's contract is stop-admitting,
// finish in-flight work, persist, close. The file left behind must be
// a restorable snapshot of the drained fleet.
func TestDrainWritesFinalCheckpoint(t *testing.T) {
	const durS = 600
	path := filepath.Join(t.TempDir(), "drain.ckpt")
	f := New(Config{Shards: 2, Obs: obs.NewRegistry(), Checkpoint: path})
	for i := 1; i <= 4; i++ {
		if err := f.Add(uint16(i), deviceConfig(t, uint16(i), durS)); err != nil {
			t.Fatal(err)
		}
	}
	f.Tick(50)
	if err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	g, err := RestoreFile(path, Config{
		Shards: 1, Obs: obs.NewRegistry(), Provision: provision(t, durS),
	})
	if err != nil {
		t.Fatalf("final checkpoint not restorable: %v", err)
	}
	defer g.Close()
	if st := g.Stat(); st.Steps != 4*50 {
		t.Fatalf("drained checkpoint captured %d steps, want %d", st.Steps, 4*50)
	}
	g.RunToCompletion(64)
	for i := 1; i <= 4; i++ {
		want, err := emulator.Run(deviceConfig(t, uint16(i), durS))
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.Result(uint16(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("device %d diverged across drain/restore", i)
		}
	}
}
