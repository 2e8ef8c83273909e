package snapshot

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/faults"
	"sdb/internal/workload"
)

// newMachine builds an emulator for the journal tests: a 2-cell pack
// on a constant load, with the runtime and fault schedule optional so
// device blocks differ in shape.
func newMachine(t testing.TB, withRuntime, withFaults bool) *emulator.Machine {
	t.Helper()
	st, err := emulator.NewStack(0.7, core.Options{},
		battery.MustByName("QuickCharge-2000"),
		battery.MustByName("Standard-2000"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := emulator.Config{
		Controller:   st.Controller,
		Trace:        workload.Constant("journal", 1.3, 600, 1),
		PolicyEveryS: 60,
	}
	if withRuntime {
		cfg.Runtime = st.Runtime
	}
	if withFaults {
		cfg.Faults = faults.NewSchedule(
			faults.CellEvent{AtS: 20, Cell: 1, Kind: faults.FaultOpenCircuit},
			faults.CellEvent{AtS: 70, Cell: 1, Kind: faults.FaultCloseCircuit},
		)
	}
	m, err := emulator.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// step advances m by n steps and exports its state. Exports share the
// append-only series arrays, so earlier exports stay valid.
func step(t testing.TB, m *emulator.Machine, n int) *emulator.MachineState {
	t.Helper()
	if _, err := m.StepBatch(n); err != nil {
		t.Fatal(err)
	}
	st := m.ExportState()
	return &st
}

// journalStates is a fleet's history over four checkpoints, with every
// membership change a delta must carry between them: devices added,
// removed, re-added under an old id, quarantined, errored, and idle.
func journalStates(t testing.TB, steps int) []*Snapshot {
	a, b := newMachine(t, true, true), newMachine(t, false, false)
	c, d := newMachine(t, true, false), newMachine(t, false, true)
	s0 := &Snapshot{FleetSteps: 100, Devices: []Device{
		{ID: 1, State: step(t, a, steps)},
		{ID: 2, State: step(t, b, steps/2)},
		{ID: 5, Quarantined: true, QuarantineReason: "device-panic: cell 0"},
	}}
	bIdle := step(t, b, 0)
	s1 := &Snapshot{FleetSteps: 200, Devices: []Device{
		{ID: 1, State: step(t, a, steps/3)},
		{ID: 2, ErrMsg: "pack drained", State: bIdle},
		{ID: 3, State: step(t, c, steps/4)},
	}}
	s2 := &Snapshot{FleetSteps: 300, Devices: []Device{
		{ID: 1, State: step(t, a, steps/2)},
		{ID: 3, Quarantined: true, QuarantineReason: "device-panic: cell 1"},
		{ID: 4, State: step(t, d, steps/5)},
	}}
	s3 := &Snapshot{FleetSteps: 400, Devices: []Device{
		{ID: 1, State: step(t, a, 1)},
		{ID: 2, State: step(t, newMachine(t, false, false), steps/6)},
		{ID: 4, State: step(t, d, steps/5)},
	}}
	return []*Snapshot{s0, s1, s2, s3}
}

// offsets returns each of next's devices' series offset after prev:
// the previous length for a device that continues, 0 for one that is
// new, re-added, or had no state. readded names ids whose device was
// replaced since prev.
func offsets(prev, next *Snapshot, readded ...uint16) []int {
	lens := map[uint16]int{}
	for _, dev := range prev.Devices {
		if dev.State != nil {
			lens[dev.ID] = len(dev.State.Series.DeliveredW)
		}
	}
	for _, id := range readded {
		delete(lens, id)
	}
	from := make([]int, len(next.Devices))
	for i, dev := range next.Devices {
		from[i] = lens[dev.ID]
	}
	return from
}

// buildJournal encodes states[0] as the base and appends each later
// state as a delta, returning the file and where each record ends.
func buildJournal(t testing.TB, states []*Snapshot) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, states[0]); err != nil {
		t.Fatal(err)
	}
	ends := []int{buf.Len()}
	for k := 1; k < len(states); k++ {
		var readded []uint16
		if k == 3 {
			readded = []uint16{2}
		}
		if err := WriteDelta(&buf, states[k], offsets(states[k-1], states[k], readded...)); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, buf.Len())
	}
	return buf.Bytes(), ends
}

// full is the full encoding of s and its decode: what every journal
// ending at s must reproduce.
func full(t testing.TB, s *Snapshot) ([]byte, *Snapshot) {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), dec
}

// TestJournalFoldEqualsFull: a base plus k deltas decodes to exactly
// the snapshot a full encode of the k-th state decodes to — across
// adds, removals, a re-added id, quarantine, an errored idle device —
// and re-encodes to the same bytes.
func TestJournalFoldEqualsFull(t *testing.T) {
	states := journalStates(t, 240)
	data, ends := buildJournal(t, states)
	for k, end := range ends {
		got, err := Decode(data[:end])
		if err != nil {
			t.Fatalf("journal through record %d: %v", k, err)
		}
		wantBytes, want := full(t, states[k])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("journal through record %d decodes differently from the full snapshot", k)
		}
		var re bytes.Buffer
		if err := Encode(&re, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), wantBytes) {
			t.Fatalf("journal through record %d re-encodes differently", k)
		}
	}
	// The deltas carry only new samples: each is far smaller than the
	// full record of the same state.
	for k := 1; k < len(ends); k++ {
		fullBytes, _ := full(t, states[k])
		if delta := ends[k] - ends[k-1]; delta >= len(fullBytes) {
			t.Errorf("delta %d is %d bytes, the full record %d", k, delta, len(fullBytes))
		}
	}
}

// TestJournalTornTail: cutting the file anywhere inside its last record
// — a crash mid-append — decodes to the record before it.
func TestJournalTornTail(t *testing.T) {
	states := journalStates(t, 60)
	data, ends := buildJournal(t, states)
	for k := 1; k < len(ends); k++ {
		_, want := full(t, states[k-1])
		for cut := ends[k-1] + 1; cut < ends[k]; cut++ {
			got, err := Decode(data[:cut])
			if err != nil {
				t.Fatalf("cut at %d inside record %d: %v", cut, k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cut at %d inside record %d: not the state of record %d", cut, k, k-1)
			}
		}
	}
	// A base cut short is no checkpoint at all.
	for cut := 0; cut < ends[0]; cut += 97 {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("base truncated to %d bytes accepted", cut)
		}
	}
}

// TestJournalRejectsEveryFlip: flipping any single byte anywhere in a
// journal is ErrCorrupt (the base's version byte reads as an unknown
// version instead), and so are trailing bytes that cannot start a
// delta record.
func TestJournalRejectsEveryFlip(t *testing.T) {
	data, _ := buildJournal(t, journalStates(t, 60))
	for i := range data {
		mut := bytes.Clone(data)
		mut[i] ^= 0xA5
		_, err := Decode(mut)
		if i == len(Magic) && errors.Is(err, ErrVersion) {
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d flipped: %v, want ErrCorrupt", i, err)
		}
	}
	for _, tail := range []string{"\x00", "SDBSNAP\x03", "SDBSNAP\x02", "X" + deltaTag[1:], deltaTag + strings.Repeat("\xff", 10)} {
		if _, err := Decode(append(bytes.Clone(data), tail...)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trailing %q: %v, want ErrCorrupt", tail, err)
		}
	}
}

// TestJournalStartsWithBase: a delta record alone is not a checkpoint.
func TestJournalStartsWithBase(t *testing.T) {
	states := journalStates(t, 30)
	var rec bytes.Buffer
	if err := WriteDelta(&rec, states[1], make([]int, len(states[1].Devices))); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(rec.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("lone delta record: %v, want ErrCorrupt", err)
	}
}

// TestWriteDeltaErrors: offsets the journal cannot hold are refused
// before a byte is written.
func TestWriteDeltaErrors(t *testing.T) {
	s := journalStates(t, 30)[1]
	ragged := *s.Devices[0].State
	series := *ragged.Series
	series.BatteryLossW = series.BatteryLossW[:len(series.BatteryLossW)-1]
	ragged.Series = &series
	past := make([]int, len(s.Devices))
	past[0] = len(s.Devices[0].State.Series.DeliveredW) + 1
	for _, tc := range []struct {
		name string
		s    *Snapshot
		from []int
		want string
	}{
		{"offset count", s, []int{0}, "offsets"},
		{"offset past the series", s, past, "outside"},
		{"ragged series", &Snapshot{Devices: []Device{{ID: 1, State: &ragged}}}, []int{0}, "differ"},
		{"ids out of order", &Snapshot{Devices: []Device{s.Devices[1], s.Devices[0]}}, []int{0, 0}, "follows"},
	} {
		var buf bytes.Buffer
		if err := WriteDelta(&buf, tc.s, tc.from); err == nil || !strings.Contains(err.Error(), tc.want) || buf.Len() != 0 {
			t.Errorf("%s: err %v after %d bytes, want %q before any", tc.name, err, buf.Len(), tc.want)
		}
	}
}

// TestJournalOffsetMustContinue: a delta whose series offset is neither
// 0 nor the previous record's length is corrupt, as is one extending a
// device the previous record did not hold.
func TestJournalOffsetMustContinue(t *testing.T) {
	states := journalStates(t, 60)
	var buf bytes.Buffer
	if err := Encode(&buf, states[0]); err != nil {
		t.Fatal(err)
	}
	from := offsets(states[0], states[1])
	for i, bad := range []func([]int){
		func(f []int) { f[0]-- },   // device 1 one short of its previous length
		func(f []int) { f[2] = 1 }, // device 3 is new
		func(f []int) { f[1] = 0 }, // valid: 0 restarts the series
	} {
		f := append([]int(nil), from...)
		bad(f)
		data := bytes.NewBuffer(bytes.Clone(buf.Bytes()))
		if err := WriteDelta(data, states[1], f); err != nil {
			t.Fatal(err)
		}
		_, err := Decode(data.Bytes())
		if i == 2 {
			if err != nil {
				t.Fatalf("offset 0 rejected: %v", err)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("case %d: %v, want ErrCorrupt", i, err)
		}
	}
}

// TestDecodeParentFile: a checkpoint written before the machine block
// carried the trace hash (testdata/v1.sdbsnap, a version-1 base record
// of sampleSnapshot, whose series held the trace's time and load
// columns) is refused with ErrVersion, not read as today's format or
// reported corrupt.
func TestDecodeParentFile(t *testing.T) {
	old, err := os.ReadFile("testdata/v1.sdbsnap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(old); !errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("version-1 checkpoint: %v, want ErrVersion", err)
	}
}

// TestWriteDeltaWorkerCountInvariant: a delta record's bytes do not
// depend on how many workers size and encode it, and it decodes over
// its base.
func TestWriteDeltaWorkerCountInvariant(t *testing.T) {
	s := manyDevices(t, 40)
	var base bytes.Buffer
	if err := Encode(&base, s); err != nil {
		t.Fatal(err)
	}
	from := make([]int, len(s.Devices))
	for i, dev := range s.Devices {
		if dev.State != nil && i%3 != 0 {
			from[i] = len(dev.State.Series.DeliveredW)
		}
	}
	var want []byte
	for _, workers := range []int{1, 2, 7} {
		withWorkers(t, workers)
		buf := bytes.NewBuffer(bytes.Clone(base.Bytes()))
		if err := WriteDelta(buf, s, from); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("workers=%d: delta bytes differ", workers)
		}
	}
	got, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	if _, wantSnap := full(t, s); !reflect.DeepEqual(got, wantSnap) {
		t.Fatal("base plus delta decodes to a different snapshot")
	}
}
