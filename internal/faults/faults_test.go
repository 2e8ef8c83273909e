package faults

import (
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"sdb/internal/battery"
	"sdb/internal/firmware"
	"sdb/internal/pmic"
)

// --- Pipe ---

func TestPipeWritesNeverBlock(t *testing.T) {
	a, b := Pipe()
	// No reader on the other end: every write must still complete.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			if _, err := a.Write(make([]byte, 512)); err != nil {
				t.Errorf("buffered write failed: %v", err)
				break
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writes blocked without a reader")
	}
	// All bytes are waiting for the peer.
	buf := make([]byte, 512*1000)
	total := 0
	for total < len(buf) {
		n, err := b.Read(buf[total:])
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
}

func TestPipeReadDeadline(t *testing.T) {
	a, _ := Pipe()
	a.SetDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := a.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read returned %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	// Clearing the deadline makes reads block again until data arrives.
	a.SetDeadline(time.Time{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		_, b := Pipe() // unrelated; just ensure no cross-talk compiles
		_ = b
	}()
}

func TestPipeCloseUnblocksAndEOFs(t *testing.T) {
	a, b := Pipe()
	if _, err := a.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	// Buffered data drains first, then EOF.
	buf := make([]byte, 16)
	n, err := b.Read(buf)
	if err != nil || string(buf[:n]) != "tail" {
		t.Fatalf("drain read = %q, %v", buf[:n], err)
	}
	if _, err := b.Read(buf); err != io.EOF {
		t.Fatalf("post-close read = %v, want EOF", err)
	}
	if _, err := b.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write to closed pipe = %v", err)
	}
}

// --- Link ---

func TestLinkDeterministicBySeed(t *testing.T) {
	run := func(seed int64) (LinkStats, []byte) {
		a, b := Pipe()
		l := NewLink(a, LinkConfig{
			Seed:           seed,
			DropFrame:      0.2,
			CorruptByte:    0.05,
			DuplicateFrame: 0.1,
			TruncateFrame:  0.1,
		})
		frame := []byte{0xA5, 1, 2, 3, 4, 5, 6, 7}
		for i := 0; i < 200; i++ {
			if _, err := l.Write(frame); err != nil {
				t.Fatal(err)
			}
		}
		a.Close()
		got, err := io.ReadAll(b)
		if err != nil {
			t.Fatal(err)
		}
		return l.Stats(), got
	}

	s1, b1 := run(42)
	s2, b2 := run(42)
	if s1 != s2 {
		t.Errorf("same seed, different stats: %+v vs %+v", s1, s2)
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Error("same seed, different byte stream")
	}
	if s1.Injected() == 0 {
		t.Error("no faults fired at these rates over 200 frames")
	}

	s3, b3 := run(43)
	if s1 == s3 && reflect.DeepEqual(b1, b3) {
		t.Error("different seeds produced identical chaos")
	}
}

func TestLinkZeroConfigIsTransparent(t *testing.T) {
	a, b := Pipe()
	l := NewLink(a, LinkConfig{Seed: 7})
	msg := []byte("exact bytes through a quiet link")
	if _, err := l.Write(msg); err != nil {
		t.Fatal(err)
	}
	a.Close()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("zero-config link altered the stream: %q", got)
	}
	if l.Stats().Injected() != 0 {
		t.Errorf("zero-config link injected faults: %+v", l.Stats())
	}
}

func TestLinkReadCorruptionIndependentOfChunking(t *testing.T) {
	// The read-path rng must walk per byte, so the corrupted positions
	// do not depend on how the reader chunks its reads.
	run := func(chunk int) []byte {
		a, b := Pipe()
		payload := make([]byte, 256)
		for i := range payload {
			payload[i] = byte(i)
		}
		if _, err := a.Write(payload); err != nil {
			t.Fatal(err)
		}
		a.Close()
		l := NewLink(b, LinkConfig{Seed: 11, CorruptReadByte: 0.1})
		var out []byte
		buf := make([]byte, chunk)
		for {
			n, err := l.Read(buf)
			out = append(out, buf[:n]...)
			if err != nil {
				break
			}
		}
		return out
	}
	whole := run(256)
	bytewise := run(1)
	if !reflect.DeepEqual(whole, bytewise) {
		t.Error("read corruption pattern depends on read chunking")
	}
}

func TestLinkDisconnectAndRestore(t *testing.T) {
	a, _ := Pipe()
	l := NewLink(a, LinkConfig{Seed: 1, DisconnectAfterWrites: 3})
	for i := 0; i < 3; i++ {
		if _, err := l.Write([]byte{1}); err != nil {
			t.Fatalf("write %d before cutoff failed: %v", i, err)
		}
	}
	if _, err := l.Write([]byte{1}); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("write past cutoff = %v, want ErrLinkDown", err)
	}
	if _, err := l.Read(make([]byte, 1)); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("read on dead link = %v, want ErrLinkDown", err)
	}
	if l.Stats().Disconnects != 1 {
		t.Errorf("Disconnects = %d, want 1", l.Stats().Disconnects)
	}
	l.Restore()
	if _, err := l.Write([]byte{1}); err != nil {
		t.Fatalf("write after Restore failed: %v", err)
	}
}

// --- FlakyAPI ---

func newTestController(t *testing.T, soc float64) *firmware.Controller {
	t.Helper()
	a := battery.MustNew(battery.MustByName("QuickCharge-2000"))
	b := battery.MustNew(battery.MustByName("Standard-2000"))
	a.SetSoC(soc)
	b.SetSoC(soc)
	pack := battery.MustNewPack(a, b)
	ctrl, err := firmware.NewController(firmware.DefaultConfig(pack))
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func TestFlakyAPIInjectsErrors(t *testing.T) {
	ctrl := newTestController(t, 0.8)
	api := NewFlakyAPI(ctrl, APIConfig{Seed: 5, ErrorRate: 0.5})

	var failed, ok int
	for i := 0; i < 200; i++ {
		if err := api.Ping(); errors.Is(err, ErrInjected) {
			failed++
		} else if err == nil {
			ok++
		} else {
			t.Fatalf("unexpected error type: %v", err)
		}
	}
	if failed == 0 || ok == 0 {
		t.Fatalf("injection not probabilistic: %d failed, %d ok", failed, ok)
	}
	if got := api.Stats().InjectedErrors; got != int64(failed) {
		t.Errorf("stats count %d, observed %d", got, failed)
	}
}

func TestFlakyAPIStaleSnapshots(t *testing.T) {
	ctrl := newTestController(t, 0.8)
	api := NewFlakyAPI(ctrl, APIConfig{Seed: 9, StaleRate: 0.5})

	first, err := api.QueryBatteryStatus()
	if err != nil {
		t.Fatal(err)
	}
	// Drain the pack a little so fresh snapshots differ from the first.
	for i := 0; i < 100; i++ {
		if _, err := ctrl.Step(2.0, 0, 10); err != nil {
			t.Fatal(err)
		}
	}
	var stale, fresh int
	for i := 0; i < 100; i++ {
		sts, err := api.QueryBatteryStatus()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sts[0].SoC-first[0].SoC) < 1e-12 {
			stale++
		} else {
			fresh++
		}
	}
	if stale == 0 || fresh == 0 {
		t.Fatalf("stale injection not probabilistic: %d stale, %d fresh", stale, fresh)
	}
	if api.Stats().StaleSnapshots == 0 {
		t.Error("stats did not count stale snapshots")
	}
}

func TestFlakyAPIZeroConfigTransparent(t *testing.T) {
	ctrl := newTestController(t, 0.8)
	api := NewFlakyAPI(ctrl, APIConfig{Seed: 1})
	for i := 0; i < 50; i++ {
		if err := api.Ping(); err != nil {
			t.Fatalf("transparent wrapper failed: %v", err)
		}
	}
	if _, err := api.QueryBatteryStatus(); err != nil {
		t.Fatal(err)
	}
	if s := api.Stats(); s.InjectedErrors != 0 || s.StaleSnapshots != 0 {
		t.Errorf("zero-config wrapper injected faults: %+v", s)
	}
}

// --- Schedule ---

func TestScheduleFiresInOrder(t *testing.T) {
	ctrl := newTestController(t, 0.9)
	sch := NewSchedule(
		CellEvent{AtS: 300, Cell: 0, Kind: FaultCapacityFade, Fraction: 0.5},
		CellEvent{AtS: 100, Cell: 1, Kind: FaultOpenCircuit},
		CellEvent{AtS: 200, Cell: 1, Kind: FaultCloseCircuit},
		CellEvent{AtS: 400, Cell: 0, Kind: FaultGaugeDrift, Fraction: -0.2},
	)

	if err := sch.Apply(50, ctrl); err != nil {
		t.Fatal(err)
	}
	if len(sch.Applied()) != 0 || ctrl.CellOpen(1) {
		t.Fatal("event fired before its time")
	}

	if err := sch.Apply(150, ctrl); err != nil {
		t.Fatal(err)
	}
	if !ctrl.CellOpen(1) {
		t.Fatal("open-circuit event did not fire at t=150")
	}

	if err := sch.Apply(250, ctrl); err != nil {
		t.Fatal(err)
	}
	if ctrl.CellOpen(1) {
		t.Fatal("close-circuit event did not clear the fault")
	}

	capBefore := ctrl.Pack().Cell(0).Capacity()
	gaugeBefore := ctrl.Gauge(0).SoC()
	if err := sch.Apply(86400, ctrl); err != nil {
		t.Fatal(err)
	}
	capAfter := ctrl.Pack().Cell(0).Capacity()
	if math.Abs(capAfter-0.5*capBefore) > 1e-9*capBefore {
		t.Errorf("fade left capacity %g, want half of %g", capAfter, capBefore)
	}
	if got := ctrl.Gauge(0).SoC(); math.Abs(got-(gaugeBefore-0.2)) > 1e-9 {
		t.Errorf("gauge drift left estimate %g, want %g", got, gaugeBefore-0.2)
	}
	if sch.Pending() != 0 || len(sch.Applied()) != 4 {
		t.Errorf("pending=%d applied=%d after full sweep", sch.Pending(), len(sch.Applied()))
	}

	// Events fire at most once: replay at a later time is a no-op.
	if err := sch.Apply(90000, ctrl); err != nil {
		t.Fatal(err)
	}
	if len(sch.Applied()) != 4 {
		t.Error("events fired twice")
	}
}

func TestScheduleTracksFadeEnergy(t *testing.T) {
	ctrl := newTestController(t, 1.0)
	// At full charge, halving capacity clamps SoC at 1 and destroys half
	// the stored energy; the schedule must account for it.
	before := ctrl.Pack().EnergyRemainingJ()
	sch := NewSchedule(CellEvent{AtS: 0, Cell: 0, Kind: FaultCapacityFade, Fraction: 0.5})
	if err := sch.Apply(0, ctrl); err != nil {
		t.Fatal(err)
	}
	after := ctrl.Pack().EnergyRemainingJ()
	removed := sch.EnergyRemovedJ()
	if removed <= 0 {
		t.Fatalf("EnergyRemovedJ = %g, want positive", removed)
	}
	if diff := before - after; math.Abs(diff-removed) > 1e-6*before {
		t.Errorf("accounting drift: pack lost %g J, schedule recorded %g J", diff, removed)
	}
}

func TestScheduleBadEventSurfacesOnce(t *testing.T) {
	ctrl := newTestController(t, 0.9)
	sch := NewSchedule(
		CellEvent{AtS: 10, Cell: 99, Kind: FaultOpenCircuit},
		CellEvent{AtS: 20, Cell: 0, Kind: FaultOpenCircuit},
	)
	if err := sch.Apply(100, ctrl); !errors.Is(err, firmware.ErrBadIndex) {
		t.Fatalf("bad-index event returned %v", err)
	}
	// The bad event is consumed; the next sweep fires the rest.
	if err := sch.Apply(100, ctrl); err != nil {
		t.Fatal(err)
	}
	if !ctrl.CellOpen(0) {
		t.Error("event after the failed one never fired")
	}
}

// TestFlakyAPIStaleReplayCopiesIntoDst: a stale replay through
// QueryBatteryStatusInto lands in the caller's slice as a copy. A
// caller that reuses (and so overwrites) its slice must not corrupt
// the snapshot later replays return.
func TestFlakyAPIStaleReplayCopiesIntoDst(t *testing.T) {
	ctrl := newTestController(t, 0.8)
	api := NewFlakyAPI(ctrl, APIConfig{Seed: 9, StaleRate: 1})
	first, err := api.QueryBatteryStatusInto(nil) // nothing to replay yet: fresh
	if err != nil {
		t.Fatal(err)
	}
	want := append([]pmic.BatteryStatus(nil), first...)
	buf := make([]pmic.BatteryStatus, 0, 8)
	for i := 0; i < 3; i++ {
		got, err := api.QueryBatteryStatusInto(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || &got[0] != &buf[:1][0] {
			t.Fatalf("replay %d: %d records, written into dst = %v", i, len(got), &got[0] == &buf[:1][0])
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replay %d = %+v, want the first snapshot %+v", i, got, want)
		}
		for j := range got {
			got[j].SoC = -1 // the caller reuses its slice
		}
	}
	if n := api.Stats().StaleSnapshots; n != 3 {
		t.Fatalf("%d stale snapshots, want 3", n)
	}
}
