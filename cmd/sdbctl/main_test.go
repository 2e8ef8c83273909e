package main

import (
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"sdb"
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

// TestWatchRejectsNonPositiveInterval: `watch -every 0` (or a negative
// interval) would spin the scrape loop against the controller and stamp
// every round at the same or a receding time, so it is a usage error:
// exit status 2 before the first scrape. The command runs as a child
// process (this test binary re-executed into main) against a live,
// instrumented single-device controller.
func TestWatchRejectsNonPositiveInterval(t *testing.T) {
	if args := os.Getenv("SDBCTL_TEST_ARGS"); args != "" {
		os.Args = append([]string{"sdbctl"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	// An instrumented controller, as `sdbctl serve` builds it, so a
	// watch that is not refused gets real scrapes to spin on.
	prev := obs.Default()
	obs.SetDefault(obs.NewRegistry())
	sys, err := sdb.NewSystem(sdb.SystemConfig{Cells: []string{"QuickCharge-2000", "EnergyMax-4000"}})
	obs.SetDefault(prev)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				sys.Controller.Serve(conn)
			}()
		}
	}()
	for _, every := range []string{"0", "-1s"} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run", "^TestWatchRejectsNonPositiveInterval$")
		cmd.Env = append(os.Environ(),
			"SDBCTL_TEST_ARGS=-addr "+ln.Addr().String()+" watch -every "+every+" -count 3")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("watch -every %s: got %v, want exit status 2\n%s", every, err, out)
			continue
		}
		if !strings.Contains(string(out), "must be positive") || strings.Contains(string(out), "-- t=") {
			t.Errorf("watch -every %s: want a usage error before any scrape, got\n%s", every, out)
		}
	}
}
