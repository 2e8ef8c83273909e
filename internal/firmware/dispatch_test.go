package firmware

// Dispatch is the firmware's command table: each opcode's request is
// read and its reply written by the pmic codec, and the controller
// supplies the semantics. These tests send raw frames and check the
// status byte, the reply body, and what the command did.

import (
	"strings"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/bus"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/pmic"
)

// newDispatchController builds a two-cell controller; a non-nil reg
// instruments it.
func newDispatchController(t *testing.T, reg *obs.Registry) *Controller {
	t.Helper()
	cfg := DefaultConfig(battery.MustNewPack(
		battery.MustNew(battery.MustByName("QuickCharge-2000")),
		battery.MustNew(battery.MustByName("Standard-2000"))))
	cfg.Obs = reg
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// send dispatches one request and returns the reply's status and a
// reader over the rest, after checking the reply echoes the request.
func send(t *testing.T, c *Controller, cmd byte, build func(w *bus.Writer)) (byte, *bus.Reader) {
	t.Helper()
	var w bus.Writer
	if build != nil {
		build(&w)
	}
	resp := c.Dispatch(bus.Frame{Cmd: cmd, Seq: 9, Device: 3, Payload: w.Bytes()})
	if resp.Cmd != cmd|pmic.RespFlag || resp.Seq != 9 || resp.Device != 3 {
		t.Fatalf("reply to %#x has header %#x/%d/%d", cmd, resp.Cmd, resp.Seq, resp.Device)
	}
	r := bus.NewReader(resp.Payload)
	return r.U8(), r
}

func ratios(rs ...float64) func(w *bus.Writer) {
	return func(w *bus.Writer) {
		w.U8(byte(len(rs)))
		for _, r := range rs {
			w.F64(r)
		}
	}
}

func TestDispatchCommands(t *testing.T) {
	c := newDispatchController(t, nil)
	for _, tc := range []struct {
		name  string
		cmd   byte
		build func(w *bus.Writer)
		want  byte
	}{
		{"ping", pmic.CmdPing, nil, pmic.StatusOK},
		{"discharge", pmic.CmdSetDischg, ratios(0.7, 0.3), pmic.StatusOK},
		{"charge", pmic.CmdSetCharge, ratios(0.4, 0.6), pmic.StatusOK},
		{"discharge-badsum", pmic.CmdSetDischg, ratios(0.7, 0.7), pmic.StatusBadArgs},
		{"charge-short", pmic.CmdSetCharge, func(w *bus.Writer) { w.U8(2).F64(1) }, pmic.StatusBadArgs},
		{"transfer", pmic.CmdTransfer, func(w *bus.Writer) { w.U8(0).U8(1).F64(1).F64(10) }, pmic.StatusOK},
		{"transfer-badindex", pmic.CmdTransfer, func(w *bus.Writer) { w.U8(0).U8(7).F64(1).F64(10) }, pmic.StatusBadIndex},
		{"transfer-short", pmic.CmdTransfer, func(w *bus.Writer) { w.U8(0) }, pmic.StatusBadArgs},
		{"profile", pmic.CmdSetProfile, func(w *bus.Writer) { w.U8(1).Str("fast") }, pmic.StatusOK},
		{"profile-unknown", pmic.CmdSetProfile, func(w *bus.Writer) { w.U8(1).Str("bogus") }, pmic.StatusBadArgs},
		{"profile-short", pmic.CmdSetProfile, func(w *bus.Writer) { w.U8(1) }, pmic.StatusBadArgs},
		{"unknown", 0x30, nil, pmic.StatusBadCmd},
		{"fleet-info", pmic.CmdFleetInfo, func(w *bus.Writer) { w.U8(pmic.FleetStat) }, pmic.StatusBadCmd},
		{"subscribe", pmic.CmdSubscribe, nil, pmic.StatusBadCmd},
	} {
		if st, _ := send(t, c, tc.cmd, tc.build); st != tc.want {
			t.Errorf("%s: status %#x, want %#x", tc.name, st, tc.want)
		}
	}
	if !c.TransferActive() {
		t.Error("CmdTransfer started no transfer")
	}
	if got := c.ExportState().ProfileSel[1]; got != "fast" {
		t.Errorf("CmdSetProfile selected %q", got)
	}

	st, r := send(t, c, pmic.CmdGetRatios, nil)
	n := int(r.U8())
	got := make([]float64, 2*n)
	for i := range got {
		got[i] = r.F64()
	}
	if st != pmic.StatusOK || n != 2 || got[0] != 0.7 || got[1] != 0.3 || got[2] != 0.4 || got[3] != 0.6 || r.Err() != nil {
		t.Errorf("CmdGetRatios: status %#x, registers %v, %v", st, got, r.Err())
	}
	if st, r := send(t, c, pmic.CmdBattCount, nil); st != pmic.StatusOK || r.U8() != 2 {
		t.Errorf("CmdBattCount: status %#x", st)
	}
	if st, r := send(t, c, pmic.CmdQueryStatus, nil); st != pmic.StatusOK || r.U8() != 2 || r.Remaining() == 0 {
		t.Errorf("CmdQueryStatus: status %#x", st)
	}
}

func TestDispatchObservability(t *testing.T) {
	// Uninstrumented: no metrics, no trace, no series, all answered OK.
	c := newDispatchController(t, nil)
	if st, r := send(t, c, pmic.CmdMetrics, func(w *bus.Writer) { w.UVarint(0) }); st != pmic.StatusOK || r.UVarint() != 0 || r.Str() != "" {
		t.Errorf("uninstrumented CmdMetrics: status %#x", st)
	}
	if st, r := send(t, c, pmic.CmdSeries, func(w *bus.Writer) { w.U8(pmic.SeriesList).UVarint(0) }); st != pmic.StatusOK || r.UVarint() != 0 || r.U16() != 0 {
		t.Errorf("recorder-off SeriesList: status %#x", st)
	}

	reg := obs.NewRegistry()
	c = newDispatchController(t, reg)
	rec := ts.NewRecorder(reg, ts.Config{StepS: 60})
	c.SetRecorder(rec)
	c.SetWatchdog(10)
	for i := 0; i < 4; i++ {
		if _, err := c.Step(2, 0, 60); err != nil {
			t.Fatal(err)
		}
		rec.Sample(float64(i+1) * 60)
	}

	if st, _ := send(t, c, pmic.CmdMetrics, nil); st != pmic.StatusBadArgs {
		t.Errorf("CmdMetrics without a cursor: status %#x", st)
	}
	st, r := send(t, c, pmic.CmdMetrics, func(w *bus.Writer) { w.UVarint(0) })
	if next, chunk := r.UVarint(), r.Str(); st != pmic.StatusOK || next != 0 || !strings.Contains(chunk, "sdb_pmic_steps_total 4") {
		t.Errorf("paged CmdMetrics: status %#x, next %d", st, next)
	}
	if st, _ := send(t, c, pmic.CmdMetrics, func(w *bus.Writer) { w.U8(0x80) }); st != pmic.StatusBadArgs {
		t.Errorf("CmdMetrics with a cut cursor: status %#x", st)
	}
	if st, r := send(t, c, pmic.CmdTrace, nil); st != pmic.StatusOK || r.U16() == 0 {
		t.Errorf("CmdTrace: status %#x, want the watchdog's events", st)
	}

	names := rec.Names()
	if st, _ := send(t, c, pmic.CmdSeries, func(w *bus.Writer) { w.U8(pmic.SeriesList) }); st != pmic.StatusBadArgs {
		t.Errorf("SeriesList without a cursor: status %#x", st)
	}
	st, r = send(t, c, pmic.CmdSeries, func(w *bus.Writer) { w.U8(pmic.SeriesList).UVarint(1) })
	if next, n := r.UVarint(), int(r.U16()); st != pmic.StatusOK || next != 0 || n != len(names)-1 || r.Str() != names[1] {
		t.Errorf("paged SeriesList from 1: status %#x, next %d, %d names", st, next, n)
	}
	st, r = send(t, c, pmic.CmdSeries, func(w *bus.Writer) { w.U8(pmic.SeriesGet).Str("sdb_pmic_steps_total") })
	if name := r.Str(); st != pmic.StatusOK || name != "sdb_pmic_steps_total" {
		t.Errorf("SeriesGet: status %#x, series %q", st, name)
	}
	for _, tc := range []struct {
		name  string
		build func(w *bus.Writer)
		want  byte
	}{
		{"missing", func(w *bus.Writer) { w.U8(pmic.SeriesGet).Str("no_such_series") }, pmic.StatusBadIndex},
		{"get-short", func(w *bus.Writer) { w.U8(pmic.SeriesGet) }, pmic.StatusBadArgs},
		{"bad-mode", func(w *bus.Writer) { w.U8(9) }, pmic.StatusBadArgs},
		{"empty", nil, pmic.StatusBadArgs},
	} {
		if st, _ := send(t, c, pmic.CmdSeries, tc.build); st != tc.want {
			t.Errorf("CmdSeries %s: status %#x, want %#x", tc.name, st, tc.want)
		}
	}
}
