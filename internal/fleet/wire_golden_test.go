package fleet_test

// TestWireGolden pins the bytes of every frame a server writes: one
// firmware response per opcode (through the fleet's device routing),
// each fleet-info mode, the subscribe/unsubscribe answers, and every
// push a seeded three-device fleet with alert rules sends its one
// subscriber, reset frame included. It speaks raw frames and uses only
// exported API, so it holds whichever package encodes a layout.
//
// Regenerate after a deliberate wire change with
// SDB_WIRE_UPDATE=1 go test -run TestWireGolden ./internal/fleet.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"sdb/internal/battery"
	"sdb/internal/bus"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/fleet"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/pmic"
	"sdb/internal/workload"
)

const wireGolden = "testdata/wire.golden"

// wireDevice builds device id. A non-nil reg instruments its firmware
// and runtime (not its emulator, whose step histogram reads the wall
// clock), attaches rec, and arms the watchdog so the trace ring fills.
func wireDevice(t *testing.T, id uint16, reg *obs.Registry, rec *ts.Recorder) emulator.Config {
	t.Helper()
	st, err := emulator.NewStack(0.4+0.02*float64(id), core.Options{Obs: reg},
		battery.MustByName("QuickCharge-2000"),
		battery.MustByName("Standard-2000"))
	if err != nil {
		t.Fatal(err)
	}
	if reg != nil {
		st.Controller.SetRecorder(rec)
		st.Controller.SetWatchdog(10)
	}
	return emulator.Config{
		Controller:   st.Controller,
		Runtime:      st.Runtime,
		Trace:        workload.Constant(fmt.Sprintf("wire-%d", id), 1+0.4*float64(id), 3600, 1),
		PolicyEveryS: 60,
		RecordEveryS: emulator.NoSeries,
	}
}

// wireConn is one raw protocol connection to a served fleet.
type wireConn struct {
	t   *testing.T
	c   net.Conn
	sc  *bus.Scanner
	seq byte
}

func dialFleet(t *testing.T, f *fleet.Fleet) *wireConn {
	srv, cli := net.Pipe()
	go f.Serve(srv)
	t.Cleanup(func() { cli.Close() })
	return &wireConn{t: t, c: cli, sc: bus.NewScanner(cli)}
}

// read returns the next frame on the connection.
func (w *wireConn) read() bus.Frame {
	w.t.Helper()
	w.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr, err := w.sc.ReadFrame()
	if err != nil {
		w.t.Fatal(err)
	}
	return fr
}

// call sends one request and returns its response.
func (w *wireConn) call(dev uint16, cmd byte, payload []byte) bus.Frame {
	w.t.Helper()
	w.seq++
	if err := bus.WriteFrame(w.c, bus.Frame{Cmd: cmd, Seq: w.seq, Device: dev, Payload: payload}); err != nil {
		w.t.Fatal(err)
	}
	return w.read()
}

// wireLog accumulates one golden line per frame.
type wireLog struct {
	t     *testing.T
	lines []string
	hexes []string
}

func (l *wireLog) add(name string, fr bus.Frame) {
	l.t.Helper()
	b, err := bus.Encode(fr)
	if err != nil {
		l.t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	l.lines = append(l.lines, fmt.Sprintf("%s len=%d sha256=%s", name, len(b), hex.EncodeToString(sum[:])))
	l.hexes = append(l.hexes, hex.EncodeToString(b))
}

func payload(build func(w *bus.Writer)) []byte {
	var w bus.Writer
	build(&w)
	return w.Bytes()
}

func TestWireGolden(t *testing.T) {
	if obs.Default() != nil {
		t.Fatal("a process default registry would instrument the fleet")
	}
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// FleetSnapshot answers with the checkpoint path: keep it relative.
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(dir)
	log := &wireLog{t: t}

	// Fleet A: uninstrumented, so FleetStat's rate and latency read
	// zero; device 0 reports into its own registry and recorder.
	reg := obs.NewRegistry()
	rec := ts.NewRecorder(reg, ts.Config{StepS: 60})
	fa := fleet.New(fleet.Config{Shards: 2, Checkpoint: "wire.ckpt"})
	defer fa.Close()
	for id := uint16(0); id < 3; id++ {
		var r *obs.Registry
		if id == 0 {
			r = reg
		}
		if err := fa.Add(id, wireDevice(t, id, r, rec)); err != nil {
			t.Fatal(err)
		}
	}
	var simT float64
	for tick := 0; tick < 3; tick++ {
		rec.Sample(simT)
		fa.Tick(60)
		simT += 60
	}
	rec.Sample(simT)

	a := dialFleet(t, fa)
	ratios := func(rs ...float64) []byte {
		return payload(func(w *bus.Writer) {
			w.U8(byte(len(rs)))
			for _, r := range rs {
				w.F64(r)
			}
		})
	}
	log.add("ping", a.call(0, pmic.CmdPing, nil))
	log.add("status", a.call(0, pmic.CmdQueryStatus, nil))
	log.add("status-dev1", a.call(1, pmic.CmdQueryStatus, nil))
	log.add("battcount", a.call(0, pmic.CmdBattCount, nil))
	log.add("ratios", a.call(0, pmic.CmdGetRatios, nil))
	log.add("discharge", a.call(0, pmic.CmdSetDischg, ratios(0.7, 0.3)))
	log.add("charge", a.call(0, pmic.CmdSetCharge, ratios(0.5, 0.5)))
	log.add("discharge-badsum", a.call(0, pmic.CmdSetDischg, ratios(0.7, 0.7)))
	log.add("discharge-short", a.call(0, pmic.CmdSetDischg, nil))
	log.add("transfer", a.call(0, pmic.CmdTransfer, payload(func(w *bus.Writer) {
		w.U8(0).U8(1).F64(1).F64(10)
	})))
	log.add("transfer-badindex", a.call(0, pmic.CmdTransfer, payload(func(w *bus.Writer) {
		w.U8(0).U8(7).F64(1).F64(10)
	})))
	log.add("profile", a.call(0, pmic.CmdSetProfile, payload(func(w *bus.Writer) {
		w.U8(0).Str("standard")
	})))
	log.add("ratios-after", a.call(0, pmic.CmdGetRatios, nil))
	log.add("metrics-legacy", a.call(0, pmic.CmdMetrics, nil))
	log.add("metrics-page0", a.call(0, pmic.CmdMetrics, payload(func(w *bus.Writer) { w.UVarint(0) })))
	log.add("metrics-page3", a.call(0, pmic.CmdMetrics, payload(func(w *bus.Writer) { w.UVarint(3) })))
	log.add("metrics-dev1", a.call(1, pmic.CmdMetrics, nil))
	log.add("trace", a.call(0, pmic.CmdTrace, nil))
	log.add("series-list", a.call(0, pmic.CmdSeries, []byte{pmic.SeriesList}))
	log.add("series-get", a.call(0, pmic.CmdSeries, payload(func(w *bus.Writer) {
		w.U8(pmic.SeriesGet).Str("sdb_pmic_steps_total")
	})))
	log.add("series-get-missing", a.call(0, pmic.CmdSeries, payload(func(w *bus.Writer) {
		w.U8(pmic.SeriesGet).Str("no_such_series")
	})))
	log.add("series-badmode", a.call(0, pmic.CmdSeries, []byte{9}))
	log.add("badcmd", a.call(0, 0x30, nil))
	log.add("nodevice", a.call(9, pmic.CmdPing, nil))
	log.add("fleet-list", a.call(0, pmic.CmdFleetInfo, []byte{pmic.FleetList}))
	log.add("fleet-stat", a.call(0, pmic.CmdFleetInfo, []byte{pmic.FleetStat}))
	log.add("fleet-subs-none", a.call(0, pmic.CmdFleetInfo, []byte{pmic.FleetSubs}))
	log.add("fleet-snapshot", a.call(0, pmic.CmdFleetInfo, []byte{pmic.FleetSnapshot}))
	log.add("fleet-badmode", a.call(0, pmic.CmdFleetInfo, []byte{9}))
	log.add("fleet-empty", a.call(0, pmic.CmdFleetInfo, nil))
	log.add("unsubscribe-unknown", a.call(0, pmic.CmdUnsubscribe, payload(func(w *bus.Writer) { w.UVarint(5) })))
	log.add("subscribe-bad", a.call(0, pmic.CmdSubscribe, []byte{7}))

	// Fleet B: three devices under alert rules, instrumented so alert
	// edges reach the trace ring, and one subscriber for everything
	// except the wall-clock fleet_steps_per_sec.
	rules, err := ts.ParseRules("alert lowsoc soc < 0.62 for 60s\nalert draining rate(soc) < 0 over 120s\n")
	if err != nil {
		t.Fatal(err)
	}
	fb := fleet.New(fleet.Config{Shards: 2, Obs: obs.NewRegistry(), Rules: rules})
	defer fb.Close()
	for id := uint16(1); id <= 3; id++ {
		if err := fb.Add(id, wireDevice(t, id, nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	cmd, sub := dialFleet(t, fb), dialFleet(t, fb)
	globs := []string{"soc", "health", "steps", "temp_c", "energy_j",
		"fleet_devices", "fleet_running", "fleet_steps_total", "fleet_quarantined", "fleet_alerts_firing"}
	log.add("subscribe", sub.call(0, pmic.CmdSubscribe, payload(func(w *bus.Writer) {
		w.U8(pmic.SubScopeFleet).U8(pmic.SubSigMetrics | pmic.SubSigTrace | pmic.SubSigAlerts).F64(0)
		w.UVarint(uint64(len(globs)))
		for _, g := range globs {
			w.Str(g)
		}
	})))
	log.add("subscribe-devices", cmd.call(0, pmic.CmdSubscribe, payload(func(w *bus.Writer) {
		w.U8(pmic.SubScopeDevices).U8(pmic.SubSigAlerts).F64(30)
		w.UVarint(2).U16(1).U16(3)
		w.UVarint(0)
	})))
	log.add("unsubscribe", cmd.call(0, pmic.CmdUnsubscribe, payload(func(w *bus.Writer) { w.UVarint(2) })))

	// pushed reads the subscriber's server-side push count.
	pushed := func(name string) uint64 {
		fr := cmd.call(0, pmic.CmdFleetInfo, []byte{pmic.FleetSubs})
		log.add(name, fr)
		r := bus.NewReader(fr.Payload)
		r.U8()
		if r.UVarint() != 1 {
			t.Fatalf("%s: want one subscription", name)
		}
		r.UVarint()
		r.U8()
		r.U8()
		r.UVarint()
		n := r.UVarint()
		if dropped := r.UVarint(); dropped != 0 || r.Err() != nil {
			t.Fatalf("%s: dropped %d, err %v", name, dropped, r.Err())
		}
		return n
	}
	var got uint64
	kinds := map[string]int{}
	drain := func(tick int) {
		for n := pushed(fmt.Sprintf("fleet-subs-tick%d", tick)); got < n; got++ {
			fr := sub.read()
			kind := "other"
			switch {
			case fr.Cmd != pmic.CmdPush || len(fr.Payload) < 2:
			case fr.Payload[0] == pmic.PushMetrics && fr.Payload[1]&pmic.PushFlagReset != 0:
				kind = "metrics-reset"
			case fr.Payload[0] == pmic.PushMetrics:
				kind = "metrics"
			case fr.Payload[0] == pmic.PushTrace:
				kind = "trace"
			case fr.Payload[0] == pmic.PushAlert:
				kind = "alert"
			}
			kinds[kind]++
			log.add(fmt.Sprintf("push-tick%d-%s", tick, kind), fr)
		}
	}
	for tick := 1; tick <= 3; tick++ {
		fb.Tick(60)
		drain(tick)
	}
	// A device re-added under its id is a new incarnation: the next
	// metrics frame re-bases every delta (PushFlagReset).
	fb.Remove(2)
	if err := fb.Add(2, wireDevice(t, 2, nil, nil)); err != nil {
		t.Fatal(err)
	}
	fb.Tick(60)
	drain(4)
	if kinds["metrics-reset"] == 0 || kinds["metrics"] < 2 || kinds["trace"] == 0 || kinds["alert"] == 0 || kinds["other"] != 0 {
		t.Fatalf("push kinds %v: want reset and delta metrics, trace and alert frames", kinds)
	}
	log.add("fleet-subs-one", cmd.call(0, pmic.CmdFleetInfo, []byte{pmic.FleetSubs}))
	log.add("unsubscribe-other-conn", cmd.call(0, pmic.CmdUnsubscribe, payload(func(w *bus.Writer) { w.UVarint(1) })))
	log.add("unsubscribe-own", sub.call(0, pmic.CmdUnsubscribe, payload(func(w *bus.Writer) { w.UVarint(1) })))

	got2 := strings.Join(log.lines, "\n") + "\n"
	path := dir + "/" + wireGolden
	if os.Getenv("SDB_WIRE_UPDATE") != "" {
		if err := os.WriteFile(path, []byte(got2), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wl := strings.Split(string(want), "\n")
	for i, line := range log.lines {
		if i >= len(wl) || wl[i] != line {
			w := ""
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("frame %d\n got %s\nwant %s\nbytes %s", i+1, line, w, log.hexes[i])
		}
	}
	if got2 != string(want) {
		t.Fatalf("got %d frames, golden has %d lines", len(log.lines), len(wl)-1)
	}
}
