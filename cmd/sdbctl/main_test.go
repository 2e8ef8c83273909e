package main

import (
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdb"
	"sdb/internal/battery/batch"
	"sdb/internal/emulator"
	"sdb/internal/fleet"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
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
	runChildMain()
	addr := serveController(t, 0)
	for _, every := range []string{"0", "-1s"} {
		out, err := runSdbctl(t, "TestWatchRejectsNonPositiveInterval",
			"-addr "+addr+" watch -every "+every+" -count 3")
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

// TestWatchOutput pins `sdbctl watch` byte for byte: three rounds
// against a controller stepped five times and then served idle, with a
// counter-rate rule, a gauge-level rule and a rule on the step
// histogram's _count series. The counters hold still between rounds, so
// the rate column reads 0/s from the second round on.
func TestWatchOutput(t *testing.T) {
	runChildMain()
	addr := serveController(t, 5)
	rules := filepath.Join(t.TempDir(), "rules.txt")
	if err := os.WriteFile(rules, []byte(`alert stepping rate(sdb_pmic_steps_total) > 0
alert healthy sdb_core_health_state == healthy
alert timed sdb_pmic_step_seconds_count >= 5
`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runSdbctl(t, "TestWatchOutput", "-addr "+addr+" watch -every 10ms -count 3 -rules "+rules)
	if err != nil {
		t.Fatalf("watch: %v\n%s", err, out)
	}
	want, err := os.ReadFile("testdata/watch.golden")
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(want) {
		t.Fatalf("watch output diverges from testdata/watch.golden:\n-- got --\n%s-- want --\n%s", out, want)
	}
}

// TestWatchSeriesNamesMatchRecorder: `watch` names the scraped values
// exactly as a recorder sampling the same registry names its series,
// histogram buckets included, and reads the same newest values, so a
// rule means one series whether `sdbsim -rules` or `watch -rules`
// evaluates it.
func TestWatchSeriesNamesMatchRecorder(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c_total").Add(3)
	reg.FCounter("j_total").Add(1.5)
	reg.Gauge("g").Set(-2)
	h := reg.Histogram("lat", []float64{1e-7, 3e-6, 0.25, 1})
	for _, v := range []float64{2e-6, 0.1, 7} {
		h.Observe(v)
	}
	rec := ts.NewRecorder(reg, ts.Config{StepS: 1})
	rec.Sample(0)
	fams, err := obs.ParseText(reg.Text())
	if err != nil {
		t.Fatal(err)
	}
	vals := scrapedSeries(fams)
	names := rec.Names()
	if len(vals) != len(names) {
		t.Fatalf("watch names %d series %v, the recorder %d: %v", len(vals), vals, len(names), names)
	}
	for _, name := range names {
		w, _ := rec.Get(name)
		v, ok := vals[name]
		if !ok {
			t.Errorf("watch has no series %s", name)
		} else if v != w.Values[len(w.Values)-1] {
			t.Errorf("%s: watch reads %g, the recorder %g", name, v, w.Values[len(w.Values)-1])
		}
	}
}

// runChildMain turns a re-executed test binary into sdbctl: with
// SDBCTL_TEST_ARGS set it runs main on those arguments and exits.
func runChildMain() {
	if args := os.Getenv("SDBCTL_TEST_ARGS"); args != "" {
		os.Args = append([]string{"sdbctl"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
}

// runSdbctl re-executes this test binary into the named test, which
// hands args to main through runChildMain, and returns the combined
// output.
func runSdbctl(t *testing.T, test, args string) ([]byte, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run", "^"+test+"$")
	cmd.Env = append(os.Environ(), "SDBCTL_TEST_ARGS="+args)
	return cmd.CombinedOutput()
}

// serveController builds an instrumented controller as `sdbctl serve`
// does — its own registry installed while the stack is built, plus the
// sdb_pmic_step_seconds histogram — steps it `steps` times (each step
// observes a fixed 2 µs so the histogram is deterministic), then serves
// it idle on a loopback listener closed at cleanup. It returns the
// listen address.
func serveController(t *testing.T, steps int) string {
	t.Helper()
	prev := obs.Default()
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	sys, err := sdb.NewSystem(sdb.SystemConfig{Cells: []string{"QuickCharge-2000", "EnergyMax-4000"}})
	obs.SetDefault(prev)
	if err != nil {
		t.Fatal(err)
	}
	stepHist := reg.Histogram("sdb_pmic_step_seconds",
		[]float64{1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 1e-3, 1e-2})
	for i := 0; i < steps; i++ {
		if _, err := sys.Controller.Step(2, 0, 60); err != nil {
			t.Fatal(err)
		}
		stepHist.Observe(2e-6)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
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
	return ln.Addr().String()
}
