package pmic_test

import (
	"math"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/bus"
	"sdb/internal/firmware"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/pmic"
)

// fuzzController builds an instrumented two-cell controller with a
// recorder attached and steps it a few times, so the metrics, trace and
// series commands answer from real content rather than empty planes.
func fuzzController(t *testing.T) *firmware.Controller {
	t.Helper()
	pack := battery.MustNewPack(
		battery.MustNew(battery.MustByName("QuickCharge-2000")),
		battery.MustNew(battery.MustByName("Standard-2000")))
	reg := obs.NewRegistry()
	cfg := firmware.DefaultConfig(pack)
	cfg.Obs = reg
	c, err := firmware.NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := ts.NewRecorder(reg, ts.Config{StepS: 60, Retain: 16})
	c.SetRecorder(rec)
	for i := 0; i < 4; i++ {
		if _, err := c.Step(2.0, 0, 60); err != nil {
			t.Fatal(err)
		}
		rec.Sample(float64(i+1) * 60)
	}
	return c
}

// FuzzDispatch sends a stepped controller one request with any command
// byte, sequence number, device id and payload. Dispatch must not
// panic, and its reply must carry RespFlag, echo Seq and Device, fit
// bus.MaxPayload and encode. The controller must then still step: a
// command that stored state the step loop cannot handle (a ratio
// vector, a profile, a transfer) shows here.
func FuzzDispatch(f *testing.F) {
	payload := func(build func(w *bus.Writer)) []byte {
		var w bus.Writer
		build(&w)
		return w.Bytes()
	}
	f.Add(byte(pmic.CmdPing), byte(1), uint16(0), []byte(nil))
	f.Add(byte(pmic.CmdSetDischg), byte(2), uint16(0), payload(func(w *bus.Writer) { w.U8(2).F64(0.25).F64(0.75) }))
	f.Add(byte(pmic.CmdSetCharge), byte(3), uint16(7), payload(func(w *bus.Writer) { w.U8(2).F64(math.NaN()).F64(1) }))
	f.Add(byte(pmic.CmdSetDischg), byte(4), uint16(0), payload(func(w *bus.Writer) { w.U8(255) }))
	f.Add(byte(pmic.CmdTransfer), byte(5), uint16(0), payload(func(w *bus.Writer) { w.U8(0).U8(1).F64(2).F64(600) }))
	f.Add(byte(pmic.CmdTransfer), byte(6), uint16(0), payload(func(w *bus.Writer) { w.U8(1).U8(0).F64(math.Inf(1)).F64(1e300) }))
	f.Add(byte(pmic.CmdQueryStatus), byte(7), uint16(0), []byte(nil))
	f.Add(byte(pmic.CmdSetProfile), byte(8), uint16(0), payload(func(w *bus.Writer) { w.U8(0).Str("fast") }))
	f.Add(byte(pmic.CmdSetProfile), byte(9), uint16(0), payload(func(w *bus.Writer) { w.U8(9).Str("") }))
	f.Add(byte(pmic.CmdBattCount), byte(10), uint16(0), []byte(nil))
	f.Add(byte(pmic.CmdGetRatios), byte(11), uint16(0), []byte(nil))
	f.Add(byte(pmic.CmdMetrics), byte(12), uint16(0), []byte(nil))
	f.Add(byte(pmic.CmdMetrics), byte(13), uint16(0), payload(func(w *bus.Writer) { w.UVarint(3) }))
	f.Add(byte(pmic.CmdMetrics), byte(14), uint16(0), payload(func(w *bus.Writer) { w.UVarint(math.MaxUint64) }))
	f.Add(byte(pmic.CmdTrace), byte(15), uint16(0), []byte(nil))
	f.Add(byte(pmic.CmdSeries), byte(16), uint16(0), payload(func(w *bus.Writer) { w.U8(pmic.SeriesList) }))
	f.Add(byte(pmic.CmdSeries), byte(17), uint16(0), payload(func(w *bus.Writer) { w.U8(pmic.SeriesGet).Str("sdb_pmic_steps_total") }))
	f.Add(byte(pmic.CmdSeries), byte(18), uint16(0), payload(func(w *bus.Writer) { w.U8(pmic.SeriesGet).Str("no_such_series") }))
	f.Add(byte(pmic.CmdFleetInfo), byte(19), uint16(3), []byte(nil))
	f.Add(byte(pmic.CmdPing|pmic.RespFlag), byte(20), uint16(0xFFFF), []byte{0xFF})

	f.Fuzz(func(t *testing.T, cmd, seq byte, device uint16, body []byte) {
		c := fuzzController(t)
		req := bus.Frame{Cmd: cmd, Seq: seq, Device: device, Payload: body}
		resp := c.Dispatch(req)
		if resp.Cmd&pmic.RespFlag == 0 || resp.Cmd != cmd|pmic.RespFlag {
			t.Fatalf("reply cmd %#x to request %#x lacks RespFlag", resp.Cmd, cmd)
		}
		if resp.Seq != seq || resp.Device != device {
			t.Fatalf("reply seq/device %d/%d, request %d/%d", resp.Seq, resp.Device, seq, device)
		}
		if len(resp.Payload) > bus.MaxPayload {
			t.Fatalf("reply payload %d bytes exceeds %d", len(resp.Payload), bus.MaxPayload)
		}
		if _, err := bus.Encode(resp); err != nil {
			t.Fatalf("reply does not encode: %v", err)
		}
		// Errors are fine here (a drained pack, a refused split); a
		// panic is not.
		_, _ = c.Step(2.0, 0, 60)
	})
}
