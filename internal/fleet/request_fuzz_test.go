package fleet

import (
	"math"
	"net"
	"testing"
	"time"

	"sdb/internal/bus"
	"sdb/internal/obs"
	"sdb/internal/pmic"
)

// FuzzFleetRequest sends a small served fleet one request the fleet
// answers itself — CmdFleetInfo, CmdSubscribe or CmdUnsubscribe, picked
// by op — with any payload, cursors included. Serve must not panic, its
// answer must be one frame of at most bus.MaxPayload echoing the
// request, and the connection must then still answer a ping.
func FuzzFleetRequest(f *testing.F) {
	payload := func(build func(w *bus.Writer)) []byte {
		var w bus.Writer
		build(&w)
		return w.Bytes()
	}
	const info, sub, unsub = 0, 1, 2
	f.Add(byte(info), []byte{pmic.FleetList}) // cursor-less legacy list requests
	f.Add(byte(info), []byte{pmic.FleetSubs})
	f.Add(byte(info), []byte{pmic.FleetList, 0})
	f.Add(byte(info), []byte{pmic.FleetSubs, 0})
	f.Add(byte(info), payload(func(w *bus.Writer) { w.U8(pmic.FleetList).UVarint(math.MaxUint64) }))
	f.Add(byte(info), payload(func(w *bus.Writer) { w.U8(pmic.FleetSubs).UVarint(math.MaxUint64) }))
	f.Add(byte(info), []byte{pmic.FleetStat})
	f.Add(byte(info), []byte{pmic.FleetSnapshot})
	f.Add(byte(info), []byte(nil))
	f.Add(byte(sub), payload(func(w *bus.Writer) {
		w.U8(pmic.SubScopeFleet).U8(pmic.SubSigMetrics | pmic.SubSigAlerts).F64(0).UVarint(1).Str("soc")
	}))
	f.Add(byte(sub), payload(func(w *bus.Writer) {
		w.U8(pmic.SubScopeDevices).U8(pmic.SubSigTrace).F64(30).UVarint(2).U16(1).U16(9).UVarint(0)
	}))
	f.Add(byte(sub), []byte{pmic.SubScopeDevices, 0xFF})
	f.Add(byte(unsub), payload(func(w *bus.Writer) { w.UVarint(1) }))
	f.Add(byte(unsub), payload(func(w *bus.Writer) { w.UVarint(math.MaxUint64) }))
	f.Add(byte(unsub), []byte(nil))

	cmds := []byte{pmic.CmdFleetInfo, pmic.CmdSubscribe, pmic.CmdUnsubscribe}
	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		if len(body) > bus.MaxPayload {
			t.Skip("the request itself would not fit a frame")
		}
		fl := New(Config{Shards: 1, Obs: obs.NewRegistry()})
		defer fl.Close()
		for _, id := range []uint16{0, 1, 9} {
			if err := fl.Add(id, deviceConfig(t, id, 60)); err != nil {
				t.Fatal(err)
			}
		}
		srv, cli := net.Pipe()
		go fl.Serve(srv)
		defer cli.Close()
		cli.SetDeadline(time.Now().Add(5 * time.Second))
		sc := bus.NewScanner(cli)
		call := func(cmd, seq byte, p []byte) bus.Frame {
			t.Helper()
			if err := bus.WriteFrame(cli, bus.Frame{Cmd: cmd, Seq: seq, Payload: p}); err != nil {
				t.Fatalf("request %#x: %v", cmd, err)
			}
			resp, err := sc.ReadFrame()
			if err != nil {
				t.Fatalf("answer to %#x: %v", cmd, err)
			}
			if resp.Cmd != cmd|pmic.RespFlag || resp.Seq != seq || len(resp.Payload) == 0 || len(resp.Payload) > bus.MaxPayload {
				t.Fatalf("answer to %#x/%d is %#x/%d with %d payload bytes", cmd, seq, resp.Cmd, resp.Seq, len(resp.Payload))
			}
			return resp
		}
		call(cmds[int(op)%len(cmds)], 1, body)
		if resp := call(pmic.CmdPing, 2, nil); resp.Payload[0] != pmic.StatusOK {
			t.Fatalf("ping after the request: status %#x", resp.Payload[0])
		}
	})
}
