package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"sdb"
	"sdb/internal/battery/batch"
	"sdb/internal/bus"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/firmware"
	"sdb/internal/fleet"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/pmic"
)

// TestServeFleetDevicesRunBatched provisions devices exactly as
// `sdbctl serve -fleet N` does and requires every one of them to take
// the batch engine: the fleet server's registry must
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

// TestServeOneDevice opens the server plain `sdbctl serve` runs (no
// -fleet: one device from -cells) and drives it as the serve loop does:
// a version-1 client reaches device 0, whose firmware, runtime and
// emulator report into the server's registry next to the fleet's own
// families; -watchdog reaches the firmware; series lists the recorder's
// names; and a checkpoint restores through the provision hook to the
// same fleet stats and, run out, the same device result.
func TestServeOneDevice(t *testing.T) {
	o := serveOptions{
		cells: "QuickCharge-2000,EnergyMax-4000", loadW: 2, speed: 60,
		watchdog: 10, durS: 600, shards: 4, batch: 64,
		ckpt: filepath.Join(t.TempDir(), "one.ckpt"), every: 3, recEvery: 1,
	}
	srv := o.newServer()
	f, restored, err := openFleet(o, srv, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if restored || f.Len() != 1 {
		t.Fatalf("fresh open: restored %v, %d devices; want a new one-device fleet", restored, f.Len())
	}
	if obs.Default() != nil {
		t.Error("opening the one-device server installed a process default registry")
	}
	var simT float64
	for tick := 0; tick < 3; tick++ {
		srv.rec.Sample(simT)
		f.Tick(int(o.speed))
		simT += o.speed
	}
	srv.rec.Sample(simT)

	a, b := net.Pipe()
	go f.Serve(a)
	defer b.Close()
	c := pmic.NewClient(b)
	c.Timeout = 5 * time.Second
	if err := c.Ping(); err != nil {
		t.Fatalf("v1 ping: %v", err)
	}
	sts, err := c.QueryBatteryStatus()
	if err != nil {
		t.Fatalf("v1 status: %v", err)
	}
	if len(sts) != 2 || sts[0].Name != "QuickCharge-2000" || sts[1].Name != "EnergyMax-4000" || !(sts[0].SoC < 1) {
		t.Errorf("device 0 status %+v: want the -cells pack, discharged from full", sts)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sdb_pmic_steps_total 180", "sdb_emulator_step_seconds", "sdb_core_policy_decisions_total", "sdb_fleet_"} {
		if !strings.Contains(text, name) {
			t.Errorf("metrics lack %q:\n%s", name, text)
		}
	}
	if fires := f.Controller(0).WatchdogFires(); fires == 0 {
		t.Error("-watchdog 10 never fired over 180 silent-between-ticks seconds")
	}
	// The listing is every one of the recorder's sorted names, however
	// many frames it takes.
	names, err := c.SeriesNames()
	if err != nil {
		t.Fatal(err)
	}
	if want := srv.rec.Names(); len(names) == 0 || !slices.Equal(names, want) {
		t.Errorf("series lists %v, the recorder holds %v", names, want)
	}
	if win, err := c.Series("sdb_pmic_steps_total"); err != nil || len(win.Values) == 0 || win.Values[len(win.Values)-1] != 180 {
		t.Errorf("series sdb_pmic_steps_total: %+v, %v; want a window ending at 180 steps", win, err)
	}

	// every: 3, so the third tick's barrier wrote the checkpoint.
	g, restored, err := openFleet(o, o.newServer(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	stat := func(f *fleet.Fleet) pmic.FleetInfo {
		st := f.Stat()
		st.DeviceStepsPerSec, st.CmdP99Seconds = 0, 0 // wall-clock readings
		return st
	}
	if !restored || stat(g) != stat(f) {
		t.Fatalf("restored %v with %+v, want %+v", restored, stat(g), stat(f))
	}
	f.RunToCompletion(int(o.speed))
	g.RunToCompletion(int(o.speed))
	want, err := f.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("restored device 0 ran out to a different result")
	}
}

// TestServeSeriesListsEveryName: `sdbctl series` against a plain serve
// prints every name device 0's recorder holds, in order, however many
// frames the listing takes.
func TestServeSeriesListsEveryName(t *testing.T) {
	o := serveOptions{
		cells: "QuickCharge-2000,EnergyMax-4000", loadW: 2, speed: 60,
		durS: 600, shards: 4, batch: 64,
	}
	srv := o.newServer()
	f, _, err := openFleet(o, srv, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv.rec.Sample(0)
	f.Tick(int(o.speed))
	srv.rec.Sample(o.speed)

	a, b := net.Pipe()
	go f.Serve(a)
	defer b.Close()
	c := pmic.NewClient(b)
	c.Timeout = 5 * time.Second
	out := captureStdout(t, func() { series(c.DeviceClient, nil) })
	want := srv.rec.Names()
	if got := strings.Fields(out); !slices.Equal(got, want) {
		t.Errorf("series printed %d names, the recorder holds %d:\n%s", len(got), len(want), out)
	}
	if len(want) < 100 {
		t.Errorf("the recorder holds %d names: too few to need more than one frame", len(want))
	}
}

// TestServeFleetListsEveryDevice: against `serve -fleet 2100`, more
// ids than one frame holds, `fleet list` prints every id and `fleet
// broadcast ping` reaches every device.
func TestServeFleetListsEveryDevice(t *testing.T) {
	const n = 2100
	o := serveOptions{
		cells: "QuickCharge-2000,EnergyMax-4000", loadW: 2, speed: 60,
		durS: 60, n: n, shards: 2, batch: 64,
	}
	f, _, err := openFleet(o, o.newServer(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, b := net.Pipe()
	go f.Serve(a)
	defer b.Close()
	c := pmic.NewClient(b)
	c.Timeout = 5 * time.Second

	out := captureStdout(t, func() { fleetCmd(c, []string{"list"}) })
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != n+1 || lines[n] != fmt.Sprintf("%d device(s)", n) {
		t.Fatalf("fleet list printed %d lines ending %q, want %d ids and the count", len(lines), lines[len(lines)-1], n)
	}
	for i, line := range lines[:n] {
		if line != fmt.Sprint(i) {
			t.Fatalf("fleet list line %d = %q, want %d", i, line, i)
		}
	}
	out = captureStdout(t, func() { fleetCmd(c, []string{"broadcast", "ping"}) })
	if want := fmt.Sprintf("broadcast ping: %d ok, 0 failed\n", n); out != want {
		t.Errorf("fleet broadcast ping printed %q, want %q", out, want)
	}
}

// TestServeSizesPoolToDevices: serve runs at most one shard per
// device, so a plain serve's pool is one shard. It then exports no idle
// shard's batch histogram, and `fleet stat` reports one device across
// one shard. Larger fleets keep -shards.
func TestServeSizesPoolToDevices(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{{0, 1}, {2, 2}, {9, 4}} {
		o := serveOptions{
			cells: "QuickCharge-2000,EnergyMax-4000", loadW: 2, speed: 60,
			durS: 600, n: tc.n, shards: 4, batch: 64,
		}
		srv := o.newServer()
		f, _, err := openFleet(o, srv, nil)
		if err != nil {
			t.Fatal(err)
		}
		f.Tick(60)
		text := srv.reg.Text()
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("sdb_fleet_shard%d_batch_seconds", i)
			if strings.Contains(text, name) != (i < tc.shards) {
				t.Errorf("-fleet %d -shards 4: exports %s: %v, want %d shard(s)", tc.n, name, !(i < tc.shards), tc.shards)
			}
		}
		a, b := net.Pipe()
		go f.Serve(a)
		c := pmic.NewClient(b)
		c.Timeout = 5 * time.Second
		out := captureStdout(t, func() { fleetCmd(c, []string{"stat"}) })
		if want := fmt.Sprintf("devices:          %d across %d shard(s)\n", max(tc.n, 1), tc.shards); !strings.Contains(out, want) {
			t.Errorf("-fleet %d -shards 4: fleet stat printed\n%s\nwant %q", tc.n, out, want)
		}
		b.Close()
		f.Close()
	}
}

// captureStdout returns what fn prints to standard output.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	done := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		done <- out
	}()
	fn()
	w.Close()
	return string(<-done)
}

// TestServedDeviceHeapFlat: serve provisions every device with
// emulator.NoSeries, so the heap a device holds does not grow with the
// steps it runs. Run to the end of a trace 60 times longer, it may
// hold up to 256 KB more, which allows for the collector's noise; a
// per-step series would hold 40 B a step (35,400 steps: 1.42 MB).
func TestServedDeviceHeapFlat(t *testing.T) {
	for _, n := range []int{0, 2} {
		held := func(durS float64) int64 {
			o := serveOptions{
				cells: "QuickCharge-2000,EnergyMax-4000", loadW: 2, speed: 60,
				durS: durS, n: n, shards: 1, batch: 64,
			}
			cfg, err := o.newServer().provision(0)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			m, err := emulator.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.EnableBatch(batch.New())
			for !m.Done() {
				if _, err := m.StepBatch(64); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			res, err := m.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if s := res.Series; s.Len() != 0 {
				t.Errorf("-fleet %d: served device recorded %d samples", n, len(s.DeliveredW))
			}
			return int64(after.HeapAlloc) - int64(before.HeapAlloc)
		}
		if short, long := held(600), held(36000); long > short+256<<10 {
			t.Errorf("-fleet %d: a served device holds %d B after 600 steps but %d B after 36,000", n, short, long)
		}
	}
}

// TestServeRefusesRestartOverDifferentTrace: a plain serve's checkpoint
// written under -load 2 -dur 600 restores only over that trace.
// Restarting with -load 3, or with -dur 1200, exits non-zero before
// serving and names the trace mismatch and the way out; the same flags
// restore.
func TestServeRefusesRestartOverDifferentTrace(t *testing.T) {
	runChildMain()
	o := serveOptions{
		cells: "QuickCharge-2000,EnergyMax-4000", loadW: 2, speed: 60,
		durS: 600, shards: 4, batch: 64,
		ckpt: filepath.Join(t.TempDir(), "p.ckpt"), every: 3, recEvery: 1,
	}
	f, _, err := openFleet(o, o.newServer(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 3; tick++ {
		f.Tick(int(o.speed)) // every: 3, so the third tick writes the checkpoint
	}
	f.Close()
	for _, args := range []string{"-load 3 -dur 600", "-load 2 -dur 1200"} {
		out, err := runSdbctl(t, "TestServeRefusesRestartOverDifferentTrace",
			"serve -addr 127.0.0.1:0 -checkpoint "+o.ckpt+" "+args)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Errorf("restart with %s: got %v, want a non-zero exit\n%s", args, err, out)
		}
		for _, want := range []string{"trace mismatch", "device 0", "remove the file"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("restart with %s: output lacks %q:\n%s", args, want, out)
			}
		}
	}
	g, restored, err := openFleet(o, o.newServer(), nil)
	if err != nil || !restored {
		t.Fatalf("restart with the same flags: restored %v, %v", restored, err)
	}
	g.Close()
}

// TestServeRejectsBadSpeedAndDur: a tick is int(-speed) one-second
// steps while the recorder stamps samples -speed seconds apart, so a
// fractional -speed would stall every device (0 steps a tick) or skew
// the recorder's clock; -dur must be a finite, positive trace length;
// and the pool needs at least one shard.
// Each is a usage error, exit status 2 before the server listens.
func TestServeRejectsBadSpeedAndDur(t *testing.T) {
	runChildMain()
	for _, args := range []string{
		"-speed 0.5", "-fleet 2 -speed 0.5", "-speed 90.5", "-speed 0", "-speed -60",
		"-speed NaN", "-speed +Inf", "-dur 0", "-dur -600", "-dur NaN", "-fleet 2 -dur +Inf",
		"-shards 0", "-fleet 2 -shards -1",
	} {
		out, err := runSdbctl(t, "TestServeRejectsBadSpeedAndDur", "serve -addr 127.0.0.1:0 "+args)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("serve %s: got %v, want exit status 2\n%s", args, err, out)
			continue
		}
		if !strings.Contains(string(out), "sdbctl: serve: -") || strings.Contains(string(out), "serving") {
			t.Errorf("serve %s: want a usage error before serving, got\n%s", args, out)
		}
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

// serveController builds a controller whose firmware and runtime
// report into their own registry, adds a step histogram that observes a
// fixed 2 µs per step (so the histogram is deterministic), steps it
// `steps` times, then serves it idle through serveConn on a loopback
// listener closed at cleanup. It returns the listen address.
func serveController(t *testing.T, steps int) string {
	t.Helper()
	reg := obs.NewRegistry()
	sys, err := sdb.NewSystem(sdb.SystemConfig{
		Cells:   []string{"QuickCharge-2000", "EnergyMax-4000"},
		Runtime: core.Options{Obs: reg},
	})
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
				serveConn(sys.Controller, conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// serveConn answers request frames read off rw with ctrl.Dispatch until
// the transport fails: the bare firmware command loop, with no fleet in
// front of it.
func serveConn(ctrl *firmware.Controller, rw io.ReadWriter) {
	sc := bus.NewScanner(rw)
	for {
		req, err := sc.ReadFrame()
		if err != nil || bus.WriteFrame(rw, ctrl.Dispatch(req)) != nil {
			return
		}
	}
}
