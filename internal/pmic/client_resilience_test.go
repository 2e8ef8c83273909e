package pmic

// Resilience tests for the bus client: retryable-vs-fatal error
// classification over every protocol status byte, bounded stale-frame
// draining, explicit sequence wrap, retry with backoff over a lossy
// transport, and reconnect through the Dial hook.

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"sdb/internal/bus"
)

// TestStatusToErrorAllCodes walks every defined protocol status byte
// plus an undefined one: each must map to a StatusError carrying the
// code, with the right retryability and a descriptive message.
func TestStatusToErrorAllCodes(t *testing.T) {
	cases := []struct {
		status    byte
		retryable bool
		contains  string
	}{
		{StatusBadArgs, false, "bad arguments"},
		{StatusBadIndex, false, "bad battery index"},
		{StatusInternal, true, "internal controller error"},
		{StatusBadCmd, false, "unknown command"},
		{StatusNoDevice, false, "no such device"},
		{StatusDraining, true, "fleet draining"},
		{StatusQuarantined, false, "device quarantined"},
		{0x7E, false, "status 0x7e"},
	}
	for _, tc := range cases {
		err := statusToError(CmdSetDischg, tc.status)
		var se *StatusError
		if !errors.As(err, &se) {
			t.Fatalf("status %#x: error %T is not a *StatusError", tc.status, err)
		}
		if se.Status != tc.status || se.Cmd != CmdSetDischg {
			t.Errorf("status %#x: decoded as %+v", tc.status, se)
		}
		if se.Retryable() != tc.retryable {
			t.Errorf("status %#x: Retryable() = %v, want %v", tc.status, se.Retryable(), tc.retryable)
		}
		if msg := se.Error(); !containsStr(msg, tc.contains) {
			t.Errorf("status %#x: message %q missing %q", tc.status, msg, tc.contains)
		}
	}
	if err := statusToError(CmdPing, StatusOK); err == nil {
		// StatusOK never reaches statusToError in practice, but the
		// mapping must still be total and non-nil to stay fail-safe.
		t.Error("statusToError(StatusOK) = nil")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// floodConn answers every request with an endless spray of mismatched
// frames — the pathological peer that pinned the old drain loop
// forever.
type floodConn struct {
	mu     sync.Mutex
	reqs   int
	served int
}

func (f *floodConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	f.reqs++
	f.mu.Unlock()
	return len(p), nil
}

func (f *floodConn) Read(p []byte) (int, error) {
	// An infinite stream of valid frames whose sequence numbers never
	// match any request (seq 0 is reserved by the client).
	f.mu.Lock()
	f.served++
	f.mu.Unlock()
	raw, err := bus.Encode(bus.Frame{Cmd: CmdPing | RespFlag, Seq: 0, Payload: []byte{StatusOK}})
	if err != nil {
		return 0, err
	}
	n := copy(p, raw)
	return n, nil
}

// TestClientDrainLoopBounded: a peer spraying mismatched frames must
// cost one bounded attempt, not an infinite spin.
func TestClientDrainLoopBounded(t *testing.T) {
	fc := &floodConn{}
	cl := NewClient(fc)
	cl.MaxStale = 16

	done := make(chan error, 1)
	go func() { done <- cl.Ping() }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStaleFlood) {
			t.Fatalf("flooded call returned %v, want ErrStaleFlood", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain loop did not terminate under a stale-frame flood")
	}
}

// TestClientSeqWrapSkipsZero: the sequence counter must wrap 255 -> 1,
// never issuing 0 (reserved so zero-filled noise cannot match a call).
func TestClientSeqWrapSkipsZero(t *testing.T) {
	ctrl := newTestController(t, 0.9)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go serveConn(ctrl, a)

	cl := NewClient(b)
	cl.seq = 254 // two calls from the wrap point
	seen := map[byte]bool{}
	for i := 0; i < 4; i++ {
		if err := cl.Ping(); err != nil {
			t.Fatalf("ping %d across seq wrap: %v", i, err)
		}
		seen[cl.seq] = true
	}
	if seen[0] {
		t.Error("client issued reserved sequence number 0")
	}
	if !seen[255] || !seen[1] {
		t.Errorf("wrap sequence unexpected: saw %v, want 255 then 1", seen)
	}
}

// lossyConn drops the first N request frames outright (writes succeed
// but nothing reaches the peer) — the paper's link losing packets.
type lossyConn struct {
	net.Conn
	mu   sync.Mutex
	drop int
}

func (l *lossyConn) Write(p []byte) (int, error) {
	l.mu.Lock()
	if l.drop > 0 {
		l.drop--
		l.mu.Unlock()
		return len(p), nil // swallowed by the ether
	}
	l.mu.Unlock()
	return l.Conn.Write(p)
}

// TestClientRetriesLostFrames: with retry configured, a call survives
// the link eating its first attempts; without retry it fails.
func TestClientRetriesLostFrames(t *testing.T) {
	ctrl := newTestController(t, 0.9)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go serveConn(ctrl, a)

	lossy := &lossyConn{Conn: b, drop: 2}
	cl := NewClient(lossy)
	cl.Timeout = 50 * time.Millisecond
	cl.Retries = 3
	cl.Backoff = time.Millisecond

	if err := cl.Discharge([]float64{0.4, 0.6}); err != nil {
		t.Fatalf("retrying client failed across 2 lost frames: %v", err)
	}
	dis, _ := ctrl.Ratios()
	if dis[0] != 0.4 || dis[1] != 0.6 {
		t.Fatalf("firmware latched %v after retried push", dis)
	}

	// Control: same loss, no retries -> the call must fail.
	lossy.mu.Lock()
	lossy.drop = 1
	lossy.mu.Unlock()
	cl.Retries = 0
	if err := cl.Ping(); err == nil {
		t.Fatal("no-retry client succeeded through a dropped frame")
	}
}

// TestClientFailsFastOnBadArgs: a firmware rejection must not be
// retried — the identical bytes would be rejected again.
func TestClientFailsFastOnBadArgs(t *testing.T) {
	ctrl := newTestController(t, 0.9)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go serveConn(ctrl, a)

	cl := NewClient(b)
	cl.Timeout = time.Second
	cl.Retries = 5
	cl.Backoff = 100 * time.Millisecond

	start := time.Now()
	err := cl.Discharge([]float64{0.5, 0.25, 0.25}) // 3 ratios for a 2-cell pack
	if err == nil {
		t.Fatal("bad-args push accepted")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusBadArgs {
		t.Fatalf("err = %v, want StatusBadArgs StatusError", err)
	}
	// Five retries at >=100ms backoff would take >3s; fail-fast returns
	// well inside one backoff interval.
	if elapsed := time.Since(start); elapsed > 80*time.Millisecond {
		t.Errorf("fail-fast rejection took %v — did it retry?", elapsed)
	}
}

// TestClientReconnectsViaDial: when the transport dies mid-session, the
// Dial hook must bring the next attempt up on a fresh connection.
func TestClientReconnectsViaDial(t *testing.T) {
	ctrl := newTestController(t, 0.9)

	newConn := func() (io.ReadWriter, net.Conn) {
		a, b := net.Pipe()
		go serveConn(ctrl, a)
		return b, b
	}
	rw1, c1 := newConn()
	cl := NewClient(rw1)
	cl.Timeout = time.Second
	cl.Retries = 2
	cl.Dial = func() (io.ReadWriter, error) {
		rw, _ := newConn()
		return rw, nil
	}

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	c1.Close() // kill the first transport

	if err := cl.Discharge([]float64{0.7, 0.3}); err != nil {
		t.Fatalf("call after transport death: %v", err)
	}
	dis, _ := ctrl.Ratios()
	if dis[0] != 0.7 {
		t.Fatalf("firmware latched %v after reconnect", dis)
	}
}

// TestClientRetriesThroughDraining: StatusDraining is a backpressure
// signal, not a verdict — a retrying client must back off and re-send,
// succeeding once the (re-dialed or failed-over) endpoint admits
// commands again. The stub endpoint answers the first two attempts
// with StatusDraining, then serves normally.
func TestClientRetriesThroughDraining(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		drains := 2
		for {
			req, err := bus.ReadFrame(a)
			if err != nil {
				return
			}
			status := byte(StatusOK)
			if drains > 0 {
				drains--
				status = StatusDraining
			}
			wire, err := bus.Encode(bus.Frame{
				Cmd: req.Cmd | RespFlag, Seq: req.Seq, Device: req.Device,
				Payload: []byte{status},
			})
			if err != nil {
				return
			}
			if _, err := a.Write(wire); err != nil {
				return
			}
		}
	}()

	cl := NewClient(b)
	cl.Timeout = time.Second
	cl.Retries = 3
	cl.Backoff = time.Millisecond
	if err := cl.Ping(); err != nil {
		t.Fatalf("retrying client failed across a draining window: %v", err)
	}

	// Control: against an endpoint that never stops draining, the
	// status surfaces as a retryable StatusError.
	c, d := net.Pipe()
	defer c.Close()
	defer d.Close()
	go func() {
		for {
			req, err := bus.ReadFrame(c)
			if err != nil {
				return
			}
			wire, _ := bus.Encode(bus.Frame{
				Cmd: req.Cmd | RespFlag, Seq: req.Seq, Device: req.Device,
				Payload: []byte{StatusDraining},
			})
			if _, err := c.Write(wire); err != nil {
				return
			}
		}
	}()
	cl2 := NewClient(d)
	cl2.Timeout = time.Second
	err := cl2.Ping()
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusDraining {
		t.Fatalf("no-retry ping against draining endpoint: %v, want StatusDraining", err)
	}
	if !se.Retryable() {
		t.Fatal("StatusDraining must be retryable")
	}
}
