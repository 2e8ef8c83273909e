package fleet

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sdb/internal/emulator"
	"sdb/internal/faults"
	"sdb/internal/obs"
	"sdb/internal/pmic"
)

// panicDeviceConfig is deviceConfig plus a scheduled device panic: the
// firmware blows up mid-step at atS simulated seconds.
func panicDeviceConfig(t testing.TB, id uint16, durS, atS float64) emulator.Config {
	cfg := deviceConfig(t, id, durS)
	cfg.Faults = faults.NewSchedule(
		faults.CellEvent{AtS: atS, Cell: 0, Kind: faults.FaultPanic},
	)
	return cfg
}

// TestQuarantineIsolatesPoisonDevice is the supervision acceptance
// test: one device's firmware panics mid-run; exactly that device is
// quarantined while every other device — including its shard
// neighbors — finishes byte-identical to its solo run.
func TestQuarantineIsolatesPoisonDevice(t *testing.T) {
	const durS = 600
	// Every shard steps on the SoA batch engine; the subtest names it.
	t.Run("soa", func(t *testing.T) {
		reg := obs.NewRegistry()
		f := New(Config{Shards: 2, Batch: 37, Obs: reg})
		defer f.Close()
		// Add order fixes shard placement (round-robin): ids 1,3,5
		// land on shard 0, ids 2,4,6 on shard 1. Device 3 is the
		// poison pill; 1 and 5 share its shard.
		for i := 1; i <= 6; i++ {
			cfg := deviceConfig(t, uint16(i), durS)
			if i == 3 {
				cfg = panicDeviceConfig(t, 3, durS, 100)
			}
			if err := f.Add(uint16(i), cfg); err != nil {
				t.Fatal(err)
			}
		}
		f.RunToCompletion(64)

		if got := f.Quarantined(); len(got) != 1 || got[0] != 3 {
			t.Fatalf("Quarantined() = %v, want [3]", got)
		}
		st := f.Stat()
		if st.Quarantined != 1 {
			t.Fatalf("Stat().Quarantined = %d, want 1", st.Quarantined)
		}
		if err := f.Err(3); err == nil || !strings.Contains(err.Error(), "quarantined") {
			t.Fatalf("Err(3) = %v, want quarantine error", err)
		}
		if _, err := f.Result(3); err == nil || !strings.Contains(err.Error(), "injected device panic") {
			t.Fatalf("Result(3) = %v, want the panic cause in the error", err)
		}
		for i := 1; i <= 6; i++ {
			if i == 3 {
				continue
			}
			want, err := emulator.Run(deviceConfig(t, uint16(i), durS))
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.Result(uint16(i))
			if err != nil {
				t.Fatalf("healthy device %d: %v", i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("device %d diverged after neighbor quarantine", i)
			}
		}
		if v := reg.Counter("sdb_fleet_device_panics_total").Value(); v != 1 {
			t.Fatalf("panic counter = %d, want 1", v)
		}
		if v := reg.Gauge("sdb_fleet_quarantined_devices").Value(); v != 1 {
			t.Fatalf("quarantine gauge = %g, want 1", v)
		}
		var traced bool
		for _, ev := range reg.Tracer().Events() {
			if ev.Scope == "fleet" && ev.Kind == "device-quarantine" && ev.V1 == 3 {
				traced = true
			}
		}
		if !traced {
			t.Fatal("no device-quarantine trace event for device 3")
		}
		var audited bool
		for _, rec := range reg.Audit().Records() {
			if rec.Health == "quarantined" && strings.Contains(rec.Note, "device 3") {
				audited = true
			}
		}
		if !audited {
			t.Fatal("no audit record for the quarantine")
		}
	})
}

// TestShardRestartEscalation: repeated panics on one shard escalate to
// a shard restart (fresh goroutine, panic budget reset) — and the
// fleet keeps stepping through it. Shard 0 hosts three poison devices
// and one healthy one; the healthy one and the whole other shard must
// still finish byte-identical.
func TestShardRestartEscalation(t *testing.T) {
	const durS = 600
	reg := obs.NewRegistry()
	f := New(Config{Shards: 2, Batch: 37, Obs: reg})
	defer f.Close()
	// Round-robin: ids 1,3,5,7 → shard 0; ids 2,4,6,8 → shard 1.
	panicAt := map[int]float64{1: 100, 3: 150, 5: 200}
	for i := 1; i <= 8; i++ {
		cfg := deviceConfig(t, uint16(i), durS)
		if at, ok := panicAt[i]; ok {
			cfg = panicDeviceConfig(t, uint16(i), durS, at)
		}
		if err := f.Add(uint16(i), cfg); err != nil {
			t.Fatal(err)
		}
	}
	f.RunToCompletion(64)

	if got := f.Quarantined(); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("Quarantined() = %v, want [1 3 5]", got)
	}
	if v := reg.Counter("sdb_fleet_shard_restarts_total").Value(); v < 1 {
		t.Fatalf("shard restarts = %d, want >= 1 after 3 panics on one shard", v)
	}
	for _, i := range []int{2, 4, 6, 7, 8} {
		want, err := emulator.Run(deviceConfig(t, uint16(i), durS))
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Result(uint16(i))
		if err != nil {
			t.Fatalf("healthy device %d after shard restart: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("device %d diverged across a shard restart", i)
		}
	}
}

// TestServeQuarantinedDevice: protocol commands addressed to a
// quarantined device are refused with StatusQuarantined — a
// non-retryable rejection carrying a distinct status so clients can
// tell "gone" from "sick".
func TestServeQuarantinedDevice(t *testing.T) {
	f, c := serveFleet(t, 2, 600, 1, 2)
	// Replace device 2 with a poison device (serveFleet added a healthy
	// one; swap it out before running).
	if !f.Remove(2) {
		t.Fatal("remove failed")
	}
	if err := f.Add(2, panicDeviceConfig(t, 2, 600, 50)); err != nil {
		t.Fatal(err)
	}
	f.RunToCompletion(64)
	err := c.Device(2).Ping()
	var se *pmic.StatusError
	if !errors.As(err, &se) || se.Status != pmic.StatusQuarantined {
		t.Fatalf("ping quarantined device: %v, want StatusQuarantined", err)
	}
	if se.Retryable() {
		t.Fatal("StatusQuarantined must not be retryable")
	}
	// The healthy device still answers on the same connection.
	if err := c.Device(1).Ping(); err != nil {
		t.Fatalf("healthy device after neighbor quarantine: %v", err)
	}
	// FleetStat reports the quarantine to new clients.
	st, err := c.FleetStat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 1 || st.Draining {
		t.Fatalf("FleetStat = %+v, want Quarantined=1 Draining=false", st)
	}
}

// TestCloseIdempotentAndConcurrent is the regression test for the
// Close bug: Close twice, Close from many goroutines, and Tick racing
// Close must all be safe. Before the fix, a second Close panicked on
// the closed wake channels and Tick-after-Close panicked on send.
func TestCloseIdempotentAndConcurrent(t *testing.T) {
	f := New(Config{Shards: 3, Obs: obs.NewRegistry()})
	for i := 1; i <= 9; i++ {
		if err := f.Add(uint16(i), deviceConfig(t, uint16(i), 600)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				f.Tick(8)
			}
		}()
		go func() {
			defer wg.Done()
			f.Close()
		}()
	}
	wg.Wait()
	f.Close() // and once more, after everything settled
	if n := f.Tick(8); n != 0 {
		t.Fatalf("Tick after Close advanced %d devices, want 0", n)
	}
	// Drain after Close is a no-op, not an error.
	if err := f.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after Close: %v", err)
	}
}
