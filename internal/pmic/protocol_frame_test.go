package pmic_test

// Frame-level protocol tests: every command's encoding round-trips
// through dispatch, truncated frames and payloads are rejected
// cleanly, and corrupted frames never decode as valid.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"sdb/internal/bus"
	"sdb/internal/firmware"
	"sdb/internal/pmic"
)

// dispatchFrame runs one request frame through the firmware dispatcher
// and returns the response payload reader after checking the envelope.
func dispatchFrame(t *testing.T, c *firmware.Controller, req bus.Frame) *bus.Reader {
	t.Helper()
	resp := c.Dispatch(req)
	if resp.Cmd != req.Cmd|pmic.RespFlag {
		t.Fatalf("response cmd = %#x, want %#x", resp.Cmd, req.Cmd|pmic.RespFlag)
	}
	if resp.Seq != req.Seq {
		t.Fatalf("response seq = %d, want %d", resp.Seq, req.Seq)
	}
	return bus.NewReader(resp.Payload)
}

func ratiosPayload(ratios ...float64) []byte {
	var w bus.Writer
	w.U8(byte(len(ratios)))
	for _, r := range ratios {
		w.F64(r)
	}
	return w.Bytes()
}

// TestDispatchRoundTrip exercises every command opcode with a valid
// encoding and decodes the response.
func TestDispatchRoundTrip(t *testing.T) {
	c := newTestController(t, 0.8)

	r := dispatchFrame(t, c, bus.Frame{Cmd: pmic.CmdPing, Seq: 1})
	if st := r.U8(); st != pmic.StatusOK || r.Err() != nil {
		t.Errorf("ping status = %d, err %v", st, r.Err())
	}

	r = dispatchFrame(t, c, bus.Frame{Cmd: pmic.CmdSetDischg, Seq: 2, Payload: ratiosPayload(0.25, 0.75)})
	if st := r.U8(); st != pmic.StatusOK {
		t.Errorf("set discharge status = %d", st)
	}
	r = dispatchFrame(t, c, bus.Frame{Cmd: pmic.CmdSetCharge, Seq: 3, Payload: ratiosPayload(0.9, 0.1)})
	if st := r.U8(); st != pmic.StatusOK {
		t.Errorf("set charge status = %d", st)
	}
	dis, chg := c.Ratios()
	if dis[0] != 0.25 || dis[1] != 0.75 || chg[0] != 0.9 || chg[1] != 0.1 {
		t.Errorf("ratios = %v / %v after frame commands", dis, chg)
	}

	r = dispatchFrame(t, c, bus.Frame{Cmd: pmic.CmdGetRatios, Seq: 4})
	if st := r.U8(); st != pmic.StatusOK {
		t.Fatalf("get ratios status = %d", st)
	}
	if n := int(r.U8()); n != 2 {
		t.Fatalf("get ratios n = %d", n)
	}
	got := []float64{r.F64(), r.F64(), r.F64(), r.F64()}
	if r.Err() != nil {
		t.Fatalf("get ratios decode: %v", r.Err())
	}
	want := []float64{0.25, 0.75, 0.9, 0.1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ratio %d = %g, want %g", i, got[i], want[i])
		}
	}

	var xw bus.Writer
	xw.U8(1).U8(0).F64(2).F64(60)
	r = dispatchFrame(t, c, bus.Frame{Cmd: pmic.CmdTransfer, Seq: 5, Payload: xw.Bytes()})
	if st := r.U8(); st != pmic.StatusOK {
		t.Errorf("transfer status = %d", st)
	}
	if !c.TransferActive() {
		t.Error("transfer command did not start a transfer")
	}

	r = dispatchFrame(t, c, bus.Frame{Cmd: pmic.CmdQueryStatus, Seq: 6})
	if st := r.U8(); st != pmic.StatusOK {
		t.Fatalf("query status = %d", st)
	}
	if n := int(r.U8()); n != 2 {
		t.Fatalf("query status n = %d", n)
	}
	for i := 0; i < 2; i++ {
		s := pmic.DecodeStatus(r)
		if s.Index != i {
			t.Errorf("status %d index = %d", i, s.Index)
		}
		if s.SoC < 0.7 || s.SoC > 0.9 {
			t.Errorf("status %d soc = %g", i, s.SoC)
		}
		if s.Name == "" || s.Chem == "" {
			t.Errorf("status %d missing name/chem: %+v", i, s)
		}
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Errorf("status decode err %v, %d bytes left", r.Err(), r.Remaining())
	}

	var pw bus.Writer
	pw.U8(0).Str("gentle")
	r = dispatchFrame(t, c, bus.Frame{Cmd: pmic.CmdSetProfile, Seq: 7, Payload: pw.Bytes()})
	if st := r.U8(); st != pmic.StatusOK {
		t.Errorf("set profile status = %d", st)
	}

	r = dispatchFrame(t, c, bus.Frame{Cmd: pmic.CmdBattCount, Seq: 8})
	if st := r.U8(); st != pmic.StatusOK {
		t.Fatalf("batt count status = %d", st)
	}
	if n := int(r.U8()); n != 2 {
		t.Errorf("batt count = %d", n)
	}

	r = dispatchFrame(t, c, bus.Frame{Cmd: 0x7F, Seq: 9})
	if st := r.U8(); st != pmic.StatusBadCmd {
		t.Errorf("unknown cmd status = %d, want %d", st, pmic.StatusBadCmd)
	}
}

// TestDispatchTruncatedPayloads feeds every argument-taking command
// each proper prefix of a valid payload; all must answer StatusBadArgs
// without panicking.
func TestDispatchTruncatedPayloads(t *testing.T) {
	c := newTestController(t, 0.8)
	var xw bus.Writer
	xw.U8(1).U8(0).F64(2).F64(60)
	var pw bus.Writer
	pw.U8(0).Str("gentle")
	cases := []struct {
		name string
		cmd  byte
		full []byte
	}{
		{"set-dischg", pmic.CmdSetDischg, ratiosPayload(0.5, 0.5)},
		{"set-charge", pmic.CmdSetCharge, ratiosPayload(0.5, 0.5)},
		{"transfer", pmic.CmdTransfer, xw.Bytes()},
		{"set-profile", pmic.CmdSetProfile, pw.Bytes()},
	}
	for _, tc := range cases {
		for cut := 0; cut < len(tc.full); cut++ {
			r := dispatchFrame(t, c, bus.Frame{Cmd: tc.cmd, Payload: tc.full[:cut]})
			if st := r.U8(); st != pmic.StatusBadArgs {
				t.Errorf("%s truncated at %d: status = %d, want %d", tc.name, cut, st, pmic.StatusBadArgs)
			}
		}
	}
	// A ratio count claiming more entries than the payload holds must
	// not over-read.
	var w bus.Writer
	w.U8(200).F64(0.5)
	r := dispatchFrame(t, c, bus.Frame{Cmd: pmic.CmdSetDischg, Payload: w.Bytes()})
	if st := r.U8(); st != pmic.StatusBadArgs {
		t.Errorf("overlong ratio count: status = %d", st)
	}
	// A profile name length running past the payload end likewise.
	var w2 bus.Writer
	w2.U8(0).U16(500)
	r = dispatchFrame(t, c, bus.Frame{Cmd: pmic.CmdSetProfile, Payload: w2.Bytes()})
	if st := r.U8(); st != pmic.StatusBadArgs {
		t.Errorf("overlong profile name: status = %d", st)
	}
}

// TestReadFrameTruncated decodes every strict prefix of a valid wire
// frame; each must fail with an io error, never succeed or panic.
func TestReadFrameTruncated(t *testing.T) {
	full, err := bus.Encode(bus.Frame{Cmd: pmic.CmdSetDischg, Seq: 7, Payload: ratiosPayload(0.3, 0.7)})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		_, err := bus.ReadFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded as a frame", cut, len(full))
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("prefix of %d bytes: err = %v, want io error", cut, err)
		}
	}
}

// TestReadFrameCorrupted flips each byte of a valid frame in turn. The
// decoder may reject the frame or resynchronize past it, but it must
// never deliver a frame with corrupted content and a nil error.
func TestReadFrameCorrupted(t *testing.T) {
	orig := bus.Frame{Cmd: pmic.CmdSetCharge, Seq: 9, Payload: ratiosPayload(0.6, 0.4)}
	full, err := bus.Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(full); pos++ {
		for _, flip := range []byte{0x01, 0x80, 0xFF} {
			buf := append([]byte(nil), full...)
			buf[pos] ^= flip
			f, err := bus.ReadFrame(bytes.NewReader(buf))
			if err != nil {
				continue
			}
			// A successful decode after corruption is only legal if it
			// reproduced the original frame (e.g. a flipped trailing CRC
			// bit caught elsewhere cannot — so content must match).
			if f.Cmd != orig.Cmd || f.Seq != orig.Seq || !bytes.Equal(f.Payload, orig.Payload) {
				t.Errorf("byte %d ^ %#x: corrupted frame decoded: %+v", pos, flip, f)
			}
		}
	}
}

// TestServeResyncAfterNoise drives Serve over a pipe with leading line
// noise and a CRC-corrupted frame before a valid ping; the firmware
// must drop the garbage and answer the ping.
func TestServeResyncAfterNoise(t *testing.T) {
	ctrl := newTestController(t, 1)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go serveConn(ctrl, a)

	good, err := bus.Encode(bus.Frame{Cmd: pmic.CmdPing, Seq: 42})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := bus.Encode(bus.Frame{Cmd: pmic.CmdBattCount, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad[len(bad)-1] ^= 0xFF // break the CRC

	wire := []byte{0x00, 0xFF, 0x13} // line noise before any frame
	wire = append(wire, bad...)
	wire = append(wire, good...)

	_ = b.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := b.Write(wire); err != nil {
		t.Fatal(err)
	}
	resp, err := bus.ReadFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cmd != pmic.CmdPing|pmic.RespFlag || resp.Seq != 42 {
		t.Fatalf("resync response = %+v, want ping reply seq 42", resp)
	}
	if st := bus.NewReader(resp.Payload).U8(); st != pmic.StatusOK {
		t.Fatalf("resync ping status = %d", st)
	}
}
