package snapshot

import (
	"bytes"
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
	"sdb/internal/faults"
	"sdb/internal/firmware"
	"sdb/internal/workload"
)

// sampleMachine builds an emulator mid-run and exports its state: the
// realistic payload every codec test round-trips. With runtime and
// faults enabled the export exercises every optional block.
func sampleMachine(t testing.TB, withRuntime, withFaults bool) *emulator.MachineState {
	t.Helper()
	st, err := emulator.NewStack(0.7, core.Options{},
		battery.MustByName("QuickCharge-2000"),
		battery.MustByName("Standard-2000"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := emulator.Config{
		Controller:   st.Controller,
		Trace:        workload.Constant("snap", 1.4, 600, 1),
		PolicyEveryS: 60,
	}
	if withRuntime {
		cfg.Runtime = st.Runtime
	}
	if withFaults {
		cfg.Faults = faults.NewSchedule(
			faults.CellEvent{AtS: 30, Cell: 1, Kind: faults.FaultOpenCircuit},
			faults.CellEvent{AtS: 90, Cell: 1, Kind: faults.FaultCloseCircuit},
			faults.CellEvent{AtS: 500, Cell: 0, Kind: faults.FaultCapacityFade, Fraction: 0.9},
		)
	}
	m, err := emulator.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.StepBatch(250); err != nil {
		t.Fatal(err)
	}
	ms := m.ExportState()
	if withRuntime {
		// A freshly stacked runtime exports an all-healthy ladder; fill
		// in the optional fields (last-known-good ratios, a last error,
		// transition log entries) so the codec round-trips every branch.
		ms.Runtime.Health = core.Degraded
		ms.Runtime.ConsecFails = 2
		ms.Runtime.TotalFails = 5
		ms.Runtime.EventSeq = 3
		ms.Runtime.LastDis = []float64{0.6, 0.4}
		ms.Runtime.LastChg = []float64{0.5, 0.5}
		ms.Runtime.LastErr = "scripted failure"
		ms.Runtime.HealthLog = []core.HealthEvent{
			{Seq: 2, From: core.Healthy, To: core.Degraded, Reason: "scripted failure", Failures: 1},
			{Seq: 3, From: core.Degraded, To: core.Healthy, Reason: "recovered"},
		}
	}
	return &ms
}

// sampleSnapshot covers every device shape the format carries: full
// state with all optional blocks, bare state, a quarantined tombstone,
// and an errored device that still has state.
func sampleSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	return &Snapshot{
		FleetSteps: 123456,
		Devices: []Device{
			{ID: 3, State: sampleMachine(t, true, true)},
			{ID: 7, Quarantined: true, QuarantineReason: "device-panic: cell 1 at t=42s"},
			{ID: 9, ErrMsg: "pack drained", State: sampleMachine(t, false, false)},
		},
	}
}

// TestSnapshotRoundTrip: Encode then Decode must reproduce the
// snapshot exactly — reflect.DeepEqual over the whole device set,
// which transitively covers every controller register, gauge, series
// sample, runtime ladder field, and fault-schedule position.
func TestSnapshotRoundTrip(t *testing.T) {
	snap := sampleSnapshot(t)
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("decoded snapshot differs from the original")
	}
	// Canonical form: re-encoding the decoded snapshot is bit-identical.
	var buf2 bytes.Buffer
	if err := Encode(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encoding is not bit-identical")
	}
}

// TestSnapshotEmpty: a fleet with no devices still checkpoints.
func TestSnapshotEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, &Snapshot{FleetSteps: 9}); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.FleetSteps != 9 || len(got.Devices) != 0 {
		t.Fatalf("empty snapshot round-tripped to %+v", got)
	}
}

// TestSnapshotRejectsCorrupt flips every byte of a valid checkpoint,
// one at a time: the CRC-16 trailer detects every single-byte
// corruption, so each mutant must be rejected (and never panic). All
// truncations must be rejected too.
func TestSnapshotRejectsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for i := range valid {
		mut := bytes.Clone(valid)
		mut[i] ^= 0xA5
		if _, err := Decode(mut); err == nil {
			t.Fatalf("byte %d flipped: decoder accepted corrupt input", i)
		}
	}
	for n := 0; n < len(valid); n++ {
		if _, err := Decode(valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if _, err := Decode(append(bytes.Clone(valid), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestSnapshotHeaderErrors pins the header failure modes apart from
// generic corruption: wrong magic and future versions produce distinct
// errors so operators can tell "not a checkpoint" from "newer build".
func TestSnapshotHeaderErrors(t *testing.T) {
	if _, err := Decode([]byte("NOTSNAP\x01\x00\x00\x00\x00")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v, want ErrCorrupt", err)
	}
	bad := []byte(Magic + "\x63\x00\x00\x00")
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: %v, want version error", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty input: %v, want ErrCorrupt", err)
	}
}

// TestWriteFileAtomic: the file helper round-trips, reports the real
// encoded size, replaces an existing checkpoint in place, and leaves
// no temp litter behind — even when the target directory is bogus.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.ckpt")
	snap := sampleSnapshot(t)
	size, err := WriteFileAtomic(path, snap)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != size {
		t.Fatalf("reported size %d, file is %d", size, fi.Size())
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("file round trip changed the snapshot")
	}

	// Overwrite with a different snapshot: readers see old-or-new,
	// never torn — here we just verify the replace lands.
	small := &Snapshot{FleetSteps: 1}
	if _, err := WriteFileAtomic(path, small); err != nil {
		t.Fatal(err)
	}
	got, err = ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.FleetSteps != 1 {
		t.Fatal("overwrite did not land")
	}

	// No temp files left after successful writes.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "fleet.ckpt" {
		t.Fatalf("directory litter after atomic writes: %v", ents)
	}

	if _, err := WriteFileAtomic(filepath.Join(dir, "no", "such", "dir", "x.ckpt"), small); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
}

// TestEncodeRejectsOversizeString: encoder-side validation — a
// quarantine reason beyond MaxStrLen must fail the encode rather than
// produce a checkpoint its own decoder rejects.
func TestEncodeRejectsOversizeString(t *testing.T) {
	snap := &Snapshot{Devices: []Device{{
		ID: 1, Quarantined: true,
		QuarantineReason: strings.Repeat("x", MaxStrLen+1),
	}}}
	if err := Encode(&bytes.Buffer{}, snap); err == nil {
		t.Fatal("oversize quarantine reason encoded")
	}
}

// TestEncodeRejectsInvalidRuntime: ladder fields that cannot be
// represented (out-of-range health, negative counters) are refused at
// encode time rather than written and rejected on every later read.
func TestEncodeRejectsInvalidRuntime(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(st *core.State)
	}{
		{"health out of range", func(st *core.State) { st.Health = core.Failed + 1 }},
		{"negative counters", func(st *core.State) { st.TotalFails = -1 }},
		{"event out of range", func(st *core.State) {
			st.HealthLog = []core.HealthEvent{{Seq: -1}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms := sampleMachine(t, true, false)
			tc.mutate(ms.Runtime)
			snap := &Snapshot{Devices: []Device{{ID: 1, State: ms}}}
			if err := Encode(&bytes.Buffer{}, snap); err == nil {
				t.Fatal("invalid runtime state encoded")
			}
		})
	}
}

// TestEncodeRefusesUndecodable: a state Decode would reject as corrupt
// fails to encode, so a fleet never writes a checkpoint it cannot
// restore. Each case was once written without error.
func TestEncodeRefusesUndecodable(t *testing.T) {
	quarantined := &Snapshot{Devices: []Device{{
		ID: 1, Quarantined: true, QuarantineReason: "device-panic", State: sampleMachine(t, false, false),
	}}}
	ms := sampleMachine(t, false, false)
	ms.Controller.Transfer = &firmware.TransferState{From: 0, To: 5, PowerW: 0.5, RemainingS: 30}
	transfer := &Snapshot{Devices: []Device{{ID: 1, State: ms}}}
	for _, tc := range []struct {
		name string
		s    *Snapshot
	}{
		{"quarantined device with state", quarantined},
		{"transfer to a cell past the pack", transfer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Encode(&buf, tc.s); err == nil {
				_, derr := Decode(buf.Bytes())
				t.Fatalf("encoded without error; Decode then says %v", derr)
			}
		})
	}
}

// TestReadErrorPaths: the io.Reader and file entry points surface
// their underlying errors instead of returning empty snapshots.
func TestReadErrorPaths(t *testing.T) {
	if _, err := Read(failingReader{}); err == nil {
		t.Error("Read swallowed the reader's error")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Error("ReadFile of a missing path succeeded")
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, fmt.Errorf("boom") }

// FuzzSnapshot: the decoder must error on arbitrary input — never
// panic, never allocate beyond what the input's size justifies — and
// must round-trip anything it accepts bit-identically.
func FuzzSnapshot(f *testing.F) {
	var buf bytes.Buffer
	st, err := emulator.NewStack(0.7, core.Options{},
		battery.MustByName("QuickCharge-2000"),
		battery.MustByName("Standard-2000"))
	if err != nil {
		f.Fatal(err)
	}
	m, err := emulator.NewMachine(emulator.Config{
		Controller:   st.Controller,
		Runtime:      st.Runtime,
		Trace:        workload.Constant("fuzz", 1.2, 300, 1),
		PolicyEveryS: 60,
	})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := m.StepBatch(120); err != nil {
		f.Fatal(err)
	}
	ms := m.ExportState()
	_ = Encode(&buf, &Snapshot{
		FleetSteps: 120,
		Devices: []Device{
			{ID: 1, State: &ms},
			{ID: 2, Quarantined: true, QuarantineReason: "panic: boom"},
		},
	})
	f.Add(buf.Bytes())
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Add([]byte("SDBSNAP\x03\x00\xff\xff"))
	trunc := bytes.Clone(buf.Bytes()[:buf.Len()/2])
	f.Add(trunc)
	// Journals: base plus deltas, one torn inside its last record, and
	// a delta record on its own.
	journal, ends := buildJournal(f, journalStates(f, 20))
	f.Add(journal)
	f.Add(journal[:ends[2]+(ends[3]-ends[2])/2])
	f.Add(journal[ends[0]:ends[1]])

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		// Anything accepted must re-encode and re-decode bit-equal
		// (canonical form round-trips).
		var out bytes.Buffer
		if err := Encode(&out, s); err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		s2, err := Decode(out.Bytes())
		if err != nil {
			t.Fatalf("re-encoded output failed to decode: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatal("round trip changed the snapshot")
		}
	})
}
