package pmic

import (
	"math"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/bus"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
)

// fuzzController builds an instrumented two-cell controller with a
// recorder attached and steps it a few times, so the metrics, trace and
// series commands answer from real content rather than empty planes.
func fuzzController(t *testing.T) *Controller {
	t.Helper()
	pack := battery.MustNewPack(
		battery.MustNew(battery.MustByName("QuickCharge-2000")),
		battery.MustNew(battery.MustByName("Standard-2000")))
	reg := obs.NewRegistry()
	cfg := DefaultConfig(pack)
	cfg.Obs = reg
	c, err := NewController(cfg)
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
	f.Add(byte(CmdPing), byte(1), uint16(0), []byte(nil))
	f.Add(byte(CmdSetDischg), byte(2), uint16(0), payload(func(w *bus.Writer) { w.U8(2).F64(0.25).F64(0.75) }))
	f.Add(byte(CmdSetCharge), byte(3), uint16(7), payload(func(w *bus.Writer) { w.U8(2).F64(math.NaN()).F64(1) }))
	f.Add(byte(CmdSetDischg), byte(4), uint16(0), payload(func(w *bus.Writer) { w.U8(255) }))
	f.Add(byte(CmdTransfer), byte(5), uint16(0), payload(func(w *bus.Writer) { w.U8(0).U8(1).F64(2).F64(600) }))
	f.Add(byte(CmdTransfer), byte(6), uint16(0), payload(func(w *bus.Writer) { w.U8(1).U8(0).F64(math.Inf(1)).F64(1e300) }))
	f.Add(byte(CmdQueryStatus), byte(7), uint16(0), []byte(nil))
	f.Add(byte(CmdSetProfile), byte(8), uint16(0), payload(func(w *bus.Writer) { w.U8(0).Str("fast") }))
	f.Add(byte(CmdSetProfile), byte(9), uint16(0), payload(func(w *bus.Writer) { w.U8(9).Str("") }))
	f.Add(byte(CmdBattCount), byte(10), uint16(0), []byte(nil))
	f.Add(byte(CmdGetRatios), byte(11), uint16(0), []byte(nil))
	f.Add(byte(CmdMetrics), byte(12), uint16(0), []byte(nil))
	f.Add(byte(CmdMetrics), byte(13), uint16(0), payload(func(w *bus.Writer) { w.UVarint(3) }))
	f.Add(byte(CmdMetrics), byte(14), uint16(0), payload(func(w *bus.Writer) { w.UVarint(math.MaxUint64) }))
	f.Add(byte(CmdTrace), byte(15), uint16(0), []byte(nil))
	f.Add(byte(CmdSeries), byte(16), uint16(0), payload(func(w *bus.Writer) { w.U8(SeriesList) }))
	f.Add(byte(CmdSeries), byte(17), uint16(0), payload(func(w *bus.Writer) { w.U8(SeriesGet).Str("sdb_pmic_steps_total") }))
	f.Add(byte(CmdSeries), byte(18), uint16(0), payload(func(w *bus.Writer) { w.U8(SeriesGet).Str("no_such_series") }))
	f.Add(byte(CmdFleetInfo), byte(19), uint16(3), []byte(nil))
	f.Add(byte(CmdPing|RespFlag), byte(20), uint16(0xFFFF), []byte{0xFF})

	f.Fuzz(func(t *testing.T, cmd, seq byte, device uint16, body []byte) {
		c := fuzzController(t)
		req := bus.Frame{Cmd: cmd, Seq: seq, Device: device, Payload: body}
		resp := c.Dispatch(req)
		if resp.Cmd&RespFlag == 0 || resp.Cmd != cmd|RespFlag {
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
