package main

import (
	"strings"
	"testing"

	"sdb/internal/battery/batch"
	"sdb/internal/emulator"
	"sdb/internal/fleet"
	"sdb/internal/obs"
)

// TestServeFleetDevicesRunBatched provisions devices exactly as
// `sdbctl serve -fleet N` does and requires every one of them to take
// the struct-of-arrays batch engine: the fleet server's registry must
// not instrument its devices, which would leave them on the scalar path.
// The ids cover device 0 (the recorder), runtime devices (id%3 == 0)
// and every load level.
func TestServeFleetDevicesRunBatched(t *testing.T) {
	srv := newFleetServer(2, 60, 600)
	if obs.Default() != nil {
		t.Error("building the fleet server installed a process default registry")
	}
	for id := uint16(0); id < 2*fleetLoadLevels; id++ {
		cfg, err := srv.provision(id)
		if err != nil {
			t.Fatalf("device %d: %v", id, err)
		}
		if cfg.Trace != srv.traces[id%fleetLoadLevels] {
			t.Errorf("device %d does not share its load level's trace", id)
		}
		m, err := emulator.NewMachine(cfg)
		if err != nil {
			t.Fatalf("device %d: %v", id, err)
		}
		if !m.EnableBatch(batch.New()) {
			t.Errorf("device %d refused the batch engine", id)
		}
	}
}

// TestServeFleetRecorderSeesFleetMetrics: device 0's recorder samples
// the fleet's registry, which holds the fleet's own families and no
// per-device firmware, emulator or policy metrics.
func TestServeFleetRecorderSeesFleetMetrics(t *testing.T) {
	srv := newFleetServer(2, 60, 600)
	f := fleet.New(fleet.Config{Shards: 2, Obs: srv.reg, Provision: srv.provision})
	defer f.Close()
	for id := uint16(0); id < 4; id++ {
		cfg, err := srv.provision(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Add(id, cfg); err != nil {
			t.Fatal(err)
		}
	}
	f.Tick(60)
	srv.rec.Sample(60)
	names := srv.rec.Names()
	fleetSeen := false
	for _, n := range names {
		switch {
		case strings.HasPrefix(n, "sdb_fleet_"):
			fleetSeen = true
		case strings.HasPrefix(n, "sdb_pmic_"), strings.HasPrefix(n, "sdb_emulator_"), strings.HasPrefix(n, "sdb_core_"):
			t.Errorf("fleet server records device metric %s", n)
		}
	}
	if !fleetSeen {
		t.Errorf("recorder holds no sdb_fleet_* series: %v", names)
	}
}
