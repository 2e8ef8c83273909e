package pmic

// Client-side push subscription tests against scripted wire bytes:
// the encoders/decoders in subscribe.go must round-trip exact frames,
// reject malformed ones loudly, and keep the request/response path
// working while pushes interleave. The server side of the protocol is
// covered end-to-end in internal/fleet; here the server is a script,
// so every byte — including ones no real server would send — is
// reachable.

import (
	"errors"
	"math"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"sdb/internal/bus"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
)

// pushServer is a scripted fleet endpoint that can also send
// unsolicited CmdPush frames. All writes go through one mutex so push
// frames never interleave bytes with a response.
type pushServer struct {
	t     *testing.T
	conn  net.Conn
	wmu   sync.Mutex
	reply func(req bus.Frame) []byte
}

func startPushServer(t *testing.T, reply func(req bus.Frame) []byte) (*Client, *pushServer) {
	t.Helper()
	a, b := net.Pipe()
	srv := &pushServer{t: t, conn: a, reply: reply}
	go func() {
		for {
			req, err := bus.ReadFrame(a)
			if err != nil {
				return
			}
			srv.wmu.Lock()
			_ = bus.WriteFrame(a, bus.Frame{
				Cmd: req.Cmd | RespFlag, Seq: req.Seq, Device: req.Device,
				Payload: srv.reply(req),
			})
			srv.wmu.Unlock()
		}
	}()
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	cl := NewClient(b)
	cl.Timeout = 5 * time.Second
	return cl, srv
}

// push queues raw frames for delivery in order. net.Pipe writes are
// synchronous, so delivery happens as the client reads; the returned
// func blocks until every frame has been consumed.
func (s *pushServer) push(frames ...bus.Frame) func() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, fr := range frames {
			s.wmu.Lock()
			err := bus.WriteFrame(s.conn, fr)
			s.wmu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	return func() { <-done }
}

func pushFrame(payload []byte) bus.Frame {
	return bus.Frame{Cmd: CmdPush, Seq: 0, Payload: payload}
}

// okSubscribe scripts a server that accepts any subscribe with the
// given id and answers FleetSubs with an empty list.
func okSubscribe(id uint64) func(req bus.Frame) []byte {
	return func(req bus.Frame) []byte {
		var w bus.Writer
		switch req.Cmd {
		case CmdSubscribe:
			w.U8(StatusOK).UVarint(id)
		case CmdUnsubscribe:
			w.U8(StatusOK)
		default:
			w.U8(StatusOK).UVarint(0)
		}
		return w.Bytes()
	}
}

// TestSubscribeRequestEncoding pins the exact CmdSubscribe payload for
// both scopes, the default signal set, cadence, and globs.
func TestSubscribeRequestEncoding(t *testing.T) {
	var got bus.Frame
	cl, _ := startPushServer(t, func(req bus.Frame) []byte {
		got = req
		var w bus.Writer
		w.U8(StatusOK).UVarint(42)
		return w.Bytes()
	})

	// Fleet scope, defaulted signals, two globs.
	id, err := cl.Subscribe(SubscriptionSpec{Fleet: true, CadenceS: 30, Globs: []string{"soc", "fleet_*"}})
	if err != nil || id != 42 {
		t.Fatalf("Subscribe = %d, %v", id, err)
	}
	r := bus.NewReader(got.Payload)
	if scope := r.U8(); scope != SubScopeFleet {
		t.Fatalf("scope %#02x, want fleet", scope)
	}
	if sig := r.U8(); sig != SubSigMetrics {
		t.Fatalf("defaulted signals %#02x, want metrics", sig)
	}
	if cad := r.F64(); cad != 30 {
		t.Fatalf("cadence %g", cad)
	}
	if n := r.UVarint(); n != 2 {
		t.Fatalf("glob count %d", n)
	}
	if g1, g2 := r.Str(), r.Str(); g1 != "soc" || g2 != "fleet_*" {
		t.Fatalf("globs %q %q", g1, g2)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}

	// Device scope with explicit signals and ids.
	if _, err := cl.Subscribe(SubscriptionSpec{Devices: []uint16{7, 9}, Signals: SubSigAlerts | SubSigTrace}); err != nil {
		t.Fatal(err)
	}
	r = bus.NewReader(got.Payload)
	if scope := r.U8(); scope != SubScopeDevices {
		t.Fatalf("scope %#02x, want devices", scope)
	}
	if sig := r.U8(); sig != SubSigAlerts|SubSigTrace {
		t.Fatalf("signals %#02x", sig)
	}
	r.F64() // cadence
	if n := r.UVarint(); n != 2 {
		t.Fatalf("device count %d", n)
	}
	if d1, d2 := r.U16(), r.U16(); d1 != 7 || d2 != 9 {
		t.Fatalf("devices %d %d", d1, d2)
	}
	if n := r.UVarint(); n != 0 {
		t.Fatalf("glob count %d, want 0", n)
	}
}

// TestSubscribeServerErrors: a refusal surfaces as a StatusError; a
// truncated OK response fails loudly instead of returning id 0.
func TestSubscribeServerErrors(t *testing.T) {
	refuse := true
	cl, _ := startPushServer(t, func(req bus.Frame) []byte {
		var w bus.Writer
		if refuse {
			w.U8(StatusDraining)
		} else {
			w.U8(StatusOK) // no id
		}
		return w.Bytes()
	})
	_, err := cl.Subscribe(SubscriptionSpec{Fleet: true})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusDraining {
		t.Fatalf("refused subscribe: %v, want StatusDraining", err)
	}
	refuse = false
	if _, err := cl.Subscribe(SubscriptionSpec{Fleet: true}); err == nil || !strings.Contains(err.Error(), "malformed subscribe response") {
		t.Fatalf("truncated subscribe response: %v", err)
	}
}

// TestUnsubscribeWireAndErrors pins the CmdUnsubscribe payload and the
// foreign-id refusal path.
func TestUnsubscribeWireAndErrors(t *testing.T) {
	var got bus.Frame
	ok := true
	cl, _ := startPushServer(t, func(req bus.Frame) []byte {
		var w bus.Writer
		if req.Cmd == CmdSubscribe {
			w.U8(StatusOK).UVarint(9)
			return w.Bytes()
		}
		got = req
		if ok {
			w.U8(StatusOK)
		} else {
			w.U8(StatusBadIndex)
		}
		return w.Bytes()
	})
	if _, err := cl.Subscribe(SubscriptionSpec{Fleet: true}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unsubscribe(9); err != nil {
		t.Fatal(err)
	}
	r := bus.NewReader(got.Payload)
	if id := r.UVarint(); id != 9 || r.Err() != nil {
		t.Fatalf("unsubscribe payload id %d, err %v", id, r.Err())
	}
	ok = false
	var se *StatusError
	if err := cl.Unsubscribe(1234); !errors.As(err, &se) || se.Status != StatusBadIndex {
		t.Fatalf("foreign unsubscribe: %v, want StatusBadIndex", err)
	}
}

func bits(v float64) uint64 { return math.Float64bits(v) }

// TestReadPushMetricsDeltaDecode drives the metric decoder through a
// dictionary announcement, a pure-delta frame, and a reset frame with
// drop accounting — the full lossy-stream lifecycle, byte by byte.
func TestReadPushMetricsDeltaDecode(t *testing.T) {
	cl, srv := startPushServer(t, okSubscribe(5))
	if _, err := cl.Subscribe(SubscriptionSpec{Fleet: true}); err != nil {
		t.Fatal(err)
	}

	// Frame 1: announce soc=0, steps=1; device 3 at t=60 with absolute
	// values (deltas against the zeroed base).
	var f1 bus.Writer
	f1.U8(PushMetrics).U8(0).UVarint(5).UVarint(0)
	f1.UVarint(2).UVarint(0).Str("soc").UVarint(1).Str("steps")
	f1.UVarint(2)
	f1.U16(3).F64(60).UVarint(2).UVarint(0).UVarint(bits(0.5)).UVarint(1).UVarint(bits(32))
	f1.U16(PushFleetDevice).F64(60).UVarint(1).UVarint(0).UVarint(bits(1))
	// Frame 2: no new names; device 3 moved to soc=0.25, steps=64.
	var f2 bus.Writer
	f2.U8(PushMetrics).U8(0).UVarint(5).UVarint(0)
	f2.UVarint(0)
	f2.UVarint(1).U16(3).F64(120).UVarint(2).
		UVarint(0).UVarint(bits(0.5) ^ bits(0.25)).
		UVarint(1).UVarint(bits(32) ^ bits(64))
	// Frame 3: reset after 4 drops — dictionary re-announced, values
	// absolute again.
	var f3 bus.Writer
	f3.U8(PushMetrics).U8(PushFlagReset).UVarint(5).UVarint(4)
	f3.UVarint(2).UVarint(0).Str("soc").UVarint(1).Str("steps")
	f3.UVarint(1).U16(3).F64(300).UVarint(2).UVarint(0).UVarint(bits(0.125)).UVarint(1).UVarint(bits(96))

	wait := srv.push(pushFrame(f1.Bytes()), pushFrame(f2.Bytes()), pushFrame(f3.Bytes()))

	p1, err := cl.ReadPush(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Kind != PushMetrics || p1.SubID != 5 || p1.Reset || p1.Dropped != 0 {
		t.Fatalf("frame 1 header: %+v", p1)
	}
	if len(p1.Devices) != 2 || p1.Devices[0].Device != 3 || p1.Devices[0].TimeS != 60 {
		t.Fatalf("frame 1 devices: %+v", p1.Devices)
	}
	if v := p1.Devices[0].Values; v[0].Name != "soc" || v[0].Value != 0.5 || v[1].Name != "steps" || v[1].Value != 32 {
		t.Fatalf("frame 1 values: %+v", v)
	}
	if fl := p1.Devices[1]; fl.Device != PushFleetDevice || fl.Values[0].Value != 1 {
		t.Fatalf("fleet block: %+v", fl)
	}

	p2, err := cl.ReadPush(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v := p2.Devices[0].Values; v[0].Value != 0.25 || v[1].Value != 64 {
		t.Fatalf("delta frame decoded %+v, want soc 0.25 steps 64", v)
	}

	p3, err := cl.ReadPush(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !p3.Reset || p3.Dropped != 4 {
		t.Fatalf("reset frame header: %+v", p3)
	}
	if v := p3.Devices[0].Values; v[0].Value != 0.125 || v[1].Value != 96 {
		t.Fatalf("post-reset values %+v", v)
	}
	wait()
}

// TestReadPushAlertAndTraceDecode covers the two non-metric kinds.
func TestReadPushAlertAndTraceDecode(t *testing.T) {
	cl, srv := startPushServer(t, okSubscribe(2))
	if _, err := cl.Subscribe(SubscriptionSpec{Fleet: true, Signals: SubSigAlerts | SubSigTrace}); err != nil {
		t.Fatal(err)
	}

	var fa bus.Writer
	fa.U8(PushAlert).UVarint(2).UVarint(1)
	fa.UVarint(2)
	fa.U16(7).F64(120).Str("lowsoc").U8(byte(ts.StateInactive)).U8(byte(ts.StateFiring)).F64(0.2).F64(0.25)
	fa.U16(8).F64(180).Str("lowsoc").U8(byte(ts.StateFiring)).U8(byte(ts.StateInactive)).F64(0.5).F64(0.25)

	ev := obs.Event{TimeS: 60, Scope: "fleet", Kind: "alert.fire", Detail: "lowsoc"}
	var ft bus.Writer
	ft.U8(PushTrace).UVarint(2).UVarint(0).U16(1)
	encodeEvent(&ft, ev)

	wait := srv.push(pushFrame(fa.Bytes()), pushFrame(ft.Bytes()))

	pa, err := cl.ReadPush(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Kind != PushAlert || pa.Dropped != 1 || len(pa.Alerts) != 2 {
		t.Fatalf("alert push: %+v", pa)
	}
	a := pa.Alerts[0]
	if a.Device != 7 || a.TimeS != 120 || a.Rule != "lowsoc" || a.From != ts.StateInactive || a.To != ts.StateFiring || a.Value != 0.2 || a.Threshold != 0.25 {
		t.Fatalf("alert transition: %+v", a)
	}

	pt, err := cl.ReadPush(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Kind != PushTrace || len(pt.Events) != 1 || pt.Events[0] != ev {
		t.Fatalf("trace push: %+v", pt)
	}
	wait()
}

// TestReadPushErrors walks the rejection paths: no subscription,
// unknown kind, unknown metric id, truncated payload, stale flood.
func TestReadPushErrors(t *testing.T) {
	cl, srv := startPushServer(t, okSubscribe(1))
	if _, err := cl.ReadPush(100 * time.Millisecond); err == nil || !strings.Contains(err.Error(), "without a subscription") {
		t.Fatalf("ReadPush before Subscribe: %v", err)
	}
	if _, err := cl.Subscribe(SubscriptionSpec{Fleet: true}); err != nil {
		t.Fatal(err)
	}

	wait := srv.push(pushFrame([]byte{0x7F}))
	if _, err := cl.ReadPush(time.Second); err == nil || !strings.Contains(err.Error(), "unknown push kind") {
		t.Fatalf("unknown kind: %v", err)
	}
	wait()

	// A value referencing a metric id never announced.
	var bad bus.Writer
	bad.U8(PushMetrics).U8(0).UVarint(1).UVarint(0)
	bad.UVarint(0)
	bad.UVarint(1).U16(3).F64(60).UVarint(1).UVarint(31).UVarint(bits(1))
	wait = srv.push(pushFrame(bad.Bytes()))
	if _, err := cl.ReadPush(time.Second); err == nil || !strings.Contains(err.Error(), "unknown metric id") {
		t.Fatalf("unknown metric id: %v", err)
	}
	wait()

	// Truncated alert frame: claims a transition, carries none.
	var trunc bus.Writer
	trunc.U8(PushAlert).UVarint(1).UVarint(0).UVarint(3)
	wait = srv.push(pushFrame(trunc.Bytes()))
	if _, err := cl.ReadPush(time.Second); err == nil || !strings.Contains(err.Error(), "malformed push frame") {
		t.Fatalf("truncated alert push: %v", err)
	}
	wait()

	// A flood of stale non-push frames must not spin forever. ReadPush
	// tolerates exactly maxStale+1 (65) stale frames before bailing, so
	// send exactly that many — the synchronous pipe means every written
	// frame must be consumed.
	stale := make([]bus.Frame, maxStale+1)
	for i := range stale {
		stale[i] = bus.Frame{Cmd: CmdPing | RespFlag, Seq: 9, Payload: []byte{StatusOK}}
	}
	wait = srv.push(stale...)
	if _, err := cl.ReadPush(5 * time.Second); !errors.Is(err, ErrStaleFlood) {
		t.Fatalf("stale flood: %v, want ErrStaleFlood", err)
	}
	wait()
}

// TestReadPushTimeout: a quiet wire surfaces the transport's deadline
// error, and the deadline is cleared afterwards.
func TestReadPushTimeout(t *testing.T) {
	cl, _ := startPushServer(t, okSubscribe(1))
	if _, err := cl.Subscribe(SubscriptionSpec{Fleet: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadPush(50 * time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("quiet ReadPush: %v, want deadline exceeded", err)
	}
	// The connection still works for calls after the timeout.
	if _, err := cl.FleetSubs(); err != nil {
		t.Fatalf("call after push timeout: %v", err)
	}
}

// TestPushBufferedDuringCall: a push that arrives while a
// request/response call is waiting for its response must be buffered
// and returned by the next ReadPush, not dropped as stale.
func TestPushBufferedDuringCall(t *testing.T) {
	var f1 bus.Writer
	f1.U8(PushMetrics).U8(0).UVarint(4).UVarint(0)
	f1.UVarint(1).UVarint(0).Str("soc")
	f1.UVarint(1).U16(1).F64(60).UVarint(1).UVarint(0).UVarint(bits(0.75))

	var srv *pushServer
	cl, s := startPushServer(t, func(req bus.Frame) []byte {
		var w bus.Writer
		if req.Cmd == CmdSubscribe {
			w.U8(StatusOK).UVarint(4)
			return w.Bytes()
		}
		// Interleave: the push goes out before this response does.
		_ = bus.WriteFrame(srv.conn, pushFrame(f1.Bytes()))
		w.U8(StatusOK).UVarint(0)
		return w.Bytes()
	})
	srv = s
	if _, err := cl.Subscribe(SubscriptionSpec{Fleet: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.FleetSubs(); err != nil {
		t.Fatal(err)
	}
	// The push must already be buffered: read it with no timeout risk.
	p, err := cl.ReadPush(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p.SubID != 4 || len(p.Devices) != 1 || p.Devices[0].Values[0].Value != 0.75 {
		t.Fatalf("buffered push: %+v", p)
	}
}

// TestFleetSubsDecodes pins the FleetSubs response decode, including
// the malformed short-count rejection.
func TestFleetSubsDecodes(t *testing.T) {
	malformed := false
	cl, _ := startPushServer(t, func(req bus.Frame) []byte {
		var w bus.Writer
		w.U8(StatusOK)
		if malformed {
			w.UVarint(5).UVarint(1) // claims 5 entries, carries half of one
			return w.Bytes()
		}
		w.UVarint(2)
		w.UVarint(1).U8(SubSigMetrics).U8(1).UVarint(0).UVarint(100).UVarint(3)
		w.UVarint(2).U8(SubSigAlerts).U8(0).UVarint(4).UVarint(7).UVarint(0)
		return w.Bytes()
	})
	subs, err := cl.FleetSubs()
	if err != nil {
		t.Fatal(err)
	}
	want := []SubStat{
		{ID: 1, Signals: SubSigMetrics, FleetWide: true, Devices: 0, Pushed: 100, Dropped: 3},
		{ID: 2, Signals: SubSigAlerts, FleetWide: false, Devices: 4, Pushed: 7, Dropped: 0},
	}
	if len(subs) != 2 || subs[0] != want[0] || subs[1] != want[1] {
		t.Fatalf("FleetSubs = %+v, want %+v", subs, want)
	}
	malformed = true
	if _, err := cl.FleetSubs(); err == nil || !strings.Contains(err.Error(), "malformed fleet subs") {
		t.Fatalf("malformed fleet subs: %v", err)
	}
}
