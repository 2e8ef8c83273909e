package fleet

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sdb/internal/emulator"
	"sdb/internal/faults"
	"sdb/internal/fleet/snapshot"
	"sdb/internal/obs"
)

// fullCheckpoint is the fleet's state as one full record.
func fullCheckpoint(t *testing.T, f *Fleet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readFile reads path or fails the test.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkJournal asserts the journal at path decodes to exactly the
// fleet's current state, and returns the file.
func checkJournal(t *testing.T, f *Fleet, path string) []byte {
	t.Helper()
	data := readFile(t, path)
	got, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := snapshot.Decode(fullCheckpoint(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("journal decodes to a different state than a full checkpoint")
	}
	return data
}

// TestJournalMatchesFullCheckpoint: with a checkpoint every tick, each
// one after the first only appends to the file, and the file always
// decodes to what a full checkpoint at that tick decodes to — through
// adds, a removal, an id re-added with a fresh device, a quarantine, a
// stepping error, and Drain's final checkpoint.
func TestJournalMatchesFullCheckpoint(t *testing.T) {
	const durS = 600
	path := filepath.Join(t.TempDir(), "journal.ckpt")
	f := New(Config{Shards: 3, Batch: 16, Obs: obs.NewRegistry(), Checkpoint: path, CheckpointEvery: 1})
	defer f.Close()
	add := func(id uint16, cfg emulator.Config) {
		t.Helper()
		if err := f.Add(id, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint16(1); i <= 6; i++ {
		add(i, deviceConfig(t, i, durS))
	}
	add(7, panicDeviceConfig(t, 7, durS, 100))
	errCfg := deviceConfig(t, 8, durS)
	errCfg.Faults = faults.NewSchedule(faults.CellEvent{AtS: 150, Cell: 9, Kind: faults.FaultOpenCircuit})
	add(8, errCfg)

	var prev []byte
	for tick := 1; tick <= 8; tick++ {
		switch tick {
		case 3:
			f.Remove(2)
			add(9, deviceConfig(t, 9, durS))
		case 5:
			add(2, deviceConfig(t, 2, durS))
		case 6:
			f.Remove(9)
		}
		f.Tick(40)
		data := checkJournal(t, f, path)
		if !bytes.HasPrefix(data, prev) {
			t.Fatalf("tick %d rewrote the checkpoint instead of appending", tick)
		}
		prev = data
	}
	if q := f.Quarantined(); len(q) != 1 || q[0] != 7 {
		t.Fatalf("Quarantined() = %v, want [7]", q)
	}
	if err := f.Err(8); err == nil {
		t.Fatal("device 8 did not error")
	}
	if full := fullCheckpoint(t, f); len(prev) >= 2*len(full) {
		t.Fatalf("8 checkpoints took %d bytes, a full one %d: deltas are not carrying only new samples", len(prev), len(full))
	}

	f.Tick(40)
	if err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if data := checkJournal(t, f, path); !bytes.HasPrefix(data, prev) {
		t.Fatal("Drain rewrote the checkpoint instead of appending")
	}
}

// TestJournalRewritesUnknownFile: the fleet appends only to the file it
// last wrote. A file truncated or replaced behind its back, or one a
// failed append left in doubt, is followed by a full rewrite; an
// explicit WriteCheckpoint is always a full record that later
// checkpoints append to.
func TestJournalRewritesUnknownFile(t *testing.T) {
	const durS = 600
	path := filepath.Join(t.TempDir(), "journal.ckpt")
	reg := obs.NewRegistry()
	f := New(Config{Shards: 2, Batch: 16, Obs: reg, Checkpoint: path, CheckpointEvery: 1})
	defer f.Close()
	for i := uint16(1); i <= 3; i++ {
		if err := f.Add(i, deviceConfig(t, i, durS)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Add(4, panicDeviceConfig(t, 4, durS, 10)); err != nil {
		t.Fatal(err)
	}
	isFull := func(what string) {
		t.Helper()
		if !bytes.Equal(checkJournal(t, f, path), fullCheckpoint(t, f)) {
			t.Fatalf("%s: checkpoint file is not one full record", what)
		}
	}
	appended := func(what string) {
		t.Helper()
		before := readFile(t, path)
		f.Tick(20)
		if data := checkJournal(t, f, path); len(data) <= len(before) || !bytes.HasPrefix(data, before) {
			t.Fatalf("%s: checkpoint did not append", what)
		}
	}

	f.Tick(20)
	isFull("first checkpoint")
	appended("second checkpoint")

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	f.Tick(20)
	isFull("after an external truncation")
	appended("after the rewrite")

	tmp := path + ".copy"
	if err := os.WriteFile(tmp, readFile(t, path), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	f.Tick(20)
	isFull("after an external replacement")

	appended("before WriteCheckpoint")
	if _, err := f.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	isFull("WriteCheckpoint")
	appended("after WriteCheckpoint")

	// A quarantine reason the format cannot hold fails the append.
	d := f.lookup(4)
	if !d.quarantined.Load() {
		t.Fatal("device 4 not quarantined")
	}
	reason := d.qreason
	d.qreason = strings.Repeat("x", snapshot.MaxStrLen+1)
	before := readFile(t, path)
	f.Tick(20)
	if got := reg.Counter("sdb_fleet_checkpoint_errors_total").Value(); got != 1 {
		t.Fatalf("checkpoint errors = %v, want 1", got)
	}
	if !bytes.Equal(readFile(t, path), before) {
		t.Fatal("failed append changed the file")
	}
	d.qreason = reason
	f.Tick(20)
	isFull("after a failed append")
}

// TestCrashTornDeltaRestore: the child fleet of TestCrashChild is killed
// halfway through appending its second delta record (the fleet.checkpoint
// kill point in snapshot.WriteDelta), leaving a torn record on disk.
// Restoring skips the torn tail and resumes from the record before it —
// the base at tick 2 folded with the delta at tick 4 — and every device
// then finishes byte-identical to its uninterrupted solo run.
func TestCrashTornDeltaRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.ckpt")
	cmd := exec.Command(os.Args[0], "-test.run", "TestCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		crashChildEnv+"=1",
		crashCkptEnv+"="+path,
		faults.KillEnv+"=fleet.checkpoint:2",
	)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if err == nil || !errors.As(err, &ee) || ee.ExitCode() != faults.KillExitCode {
		t.Fatalf("child exit = %v, want exit code %d\n%s", err, faults.KillExitCode, out)
	}

	data := readFile(t, path)
	if n := bytes.Count(data, []byte(snapshot.Magic+string(rune(snapshot.DeltaVersion)))); n != 2 {
		t.Fatalf("checkpoint holds %d delta records, want the tick-4 one and the torn tick-6 one", n)
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		t.Fatalf("checkpoint left by killed process: %v", err)
	}
	wantSteps := uint64(crashDevices) * 2 * crashEvery * crashBatch
	if snap.FleetSteps != wantSteps || len(snap.Devices) != crashDevices {
		t.Fatalf("torn journal restored steps=%d devices=%d, want steps=%d devices=%d",
			snap.FleetSteps, len(snap.Devices), wantSteps, crashDevices)
	}

	g, err := FromSnapshot(snap, Config{Shards: 2, Obs: obs.NewRegistry(), Provision: provision(t, crashDurS)})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.RunToCompletion(crashBatch)
	for i := 1; i <= crashDevices; i++ {
		want, err := emulator.Run(deviceConfig(t, uint16(i), crashDurS))
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.Result(uint16(i))
		if err != nil {
			t.Fatalf("device %d after torn-journal restore: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("device %d diverged across the torn append", i)
		}
	}
}
