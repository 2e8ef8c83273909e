package pmic

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"sdb/internal/bus"
)

// startFakeFleet serves a scripted fleet endpoint over a pipe: the
// reply function builds each response payload (status byte included)
// from the request. It exists so the client-side fleet decoders can be
// tested against exact wire bytes, including malformed ones no real
// server would emit.
func startFakeFleet(t *testing.T, reply func(req bus.Frame) []byte) *Client {
	t.Helper()
	a, b := net.Pipe()
	go func() {
		for {
			req, err := bus.ReadFrame(a)
			if err != nil {
				return
			}
			_ = bus.WriteFrame(a, bus.Frame{
				Cmd: req.Cmd | RespFlag, Seq: req.Seq, Device: req.Device,
				Payload: reply(req),
			})
		}
	}()
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	cl := NewClient(b)
	cl.Timeout = 5 * time.Second
	return cl
}

func TestFleetDevicesDecodes(t *testing.T) {
	cl := startFakeFleet(t, func(req bus.Frame) []byte {
		if req.Cmd != CmdFleetInfo || len(req.Payload) != 2 || req.Payload[0] != FleetList || req.Payload[1] != 0 {
			t.Errorf("unexpected request %+v", req)
		}
		var w bus.Writer
		w.U8(StatusOK).UVarint(0).U16(3).U16(2).U16(4).U16(9)
		return w.Bytes()
	})
	ids, err := cl.FleetDevices()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 2 || ids[1] != 4 || ids[2] != 9 {
		t.Fatalf("FleetDevices() = %v", ids)
	}
}

// TestFleetDevicesTruncatedList: a page cut short of the registry
// names the cursor to resume at; the client sends it back unchanged
// and returns every page's ids, not just the first frame's.
func TestFleetDevicesTruncatedList(t *testing.T) {
	var cursors []uint64
	cl := startFakeFleet(t, func(req bus.Frame) []byte {
		_, cursor, ok := DecodeFleetInfo(req.Payload)
		if !ok {
			t.Errorf("request %x carries no cursor", req.Payload)
		}
		cursors = append(cursors, cursor)
		var w bus.Writer
		if cursor == 0 {
			w.U8(StatusOK).UVarint(700).U16(2).U16(0).U16(1)
		} else {
			w.U8(StatusOK).UVarint(0).U16(1).U16(4999)
		}
		return w.Bytes()
	})
	ids, err := cl.FleetDevices()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []uint16{0, 1, 4999}) || !reflect.DeepEqual(cursors, []uint64{0, 700}) {
		t.Fatalf("paged list: ids %v over cursors %v", ids, cursors)
	}
}

// TestFleetDevicesMalformed: a count claiming more ids than the
// payload carries must fail loudly, not over-read.
func TestFleetDevicesMalformed(t *testing.T) {
	cl := startFakeFleet(t, func(bus.Frame) []byte {
		var w bus.Writer
		w.U8(StatusOK).UVarint(0).U16(9).U16(1) // claims 9 ids, carries 1
		return w.Bytes()
	})
	if _, err := cl.FleetDevices(); err == nil ||
		!strings.Contains(err.Error(), "malformed fleet list") {
		t.Fatalf("malformed list accepted: %v", err)
	}
}

func TestFleetStatDecodes(t *testing.T) {
	cl := startFakeFleet(t, func(req bus.Frame) []byte {
		if len(req.Payload) != 1 || req.Payload[0] != FleetStat {
			t.Errorf("unexpected request %+v", req)
		}
		var w bus.Writer
		w.U8(StatusOK).UVarint(3).UVarint(2).UVarint(360).UVarint(4).F64(1234.5).F64(0.0025)
		return w.Bytes()
	})
	fi, err := cl.FleetStat()
	if err != nil {
		t.Fatal(err)
	}
	want := FleetInfo{Devices: 3, Shards: 2, Steps: 360, Churn: 4,
		DeviceStepsPerSec: 1234.5, CmdP99Seconds: 0.0025}
	if fi != want {
		t.Fatalf("FleetStat() = %+v, want %+v", fi, want)
	}
}

// TestFleetStatShortPayload: a response cut mid-field is an error, not
// zero-filled stats.
func TestFleetStatShortPayload(t *testing.T) {
	cl := startFakeFleet(t, func(bus.Frame) []byte {
		var w bus.Writer
		w.U8(StatusOK).UVarint(3).UVarint(2) // missing steps/churn/rates
		return w.Bytes()
	})
	if _, err := cl.FleetStat(); err == nil ||
		!strings.Contains(err.Error(), "malformed fleet stat") {
		t.Fatalf("short stat accepted: %v", err)
	}
}

// TestDeviceClientAddressesFrames: calls through Device(id) must stamp
// that id on the request frame, and the default Client surface must
// stay on device 0 — the compatibility contract with v1 servers.
func TestDeviceClientAddressesFrames(t *testing.T) {
	var last bus.Frame
	cl := startFakeFleet(t, func(req bus.Frame) []byte {
		last = req
		if req.Device == 99 {
			return []byte{StatusNoDevice}
		}
		return []byte{StatusOK}
	})
	d := cl.Device(7)
	if d.ID() != 7 {
		t.Fatalf("Device(7).ID() = %d", d.ID())
	}
	if err := d.Ping(); err != nil {
		t.Fatal(err)
	}
	if last.Device != 7 {
		t.Fatalf("Device(7).Ping() put device %d on the wire", last.Device)
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if last.Device != 0 {
		t.Fatalf("Client.Ping() put device %d on the wire, want 0", last.Device)
	}
	err := cl.Device(99).Ping()
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusNoDevice {
		t.Fatalf("unknown device: %v, want StatusNoDevice", err)
	}
	if se.Retryable() {
		t.Fatal("StatusNoDevice must not be retryable")
	}
	if !strings.Contains(se.Error(), "no such device") {
		t.Fatalf("StatusNoDevice message %q", se.Error())
	}
}

// TestDeviceClientMismatchedDeviceIgnored: a response carrying the
// wrong device id is stale traffic, never a match for the pending
// call.
func TestDeviceClientMismatchedDeviceIgnored(t *testing.T) {
	// Each request is answered twice with the same seq: first on the
	// wrong device id, then on the right one. The client must skip the
	// first as stale and settle on the second.
	a, b := net.Pipe()
	go func() {
		for {
			req, err := bus.ReadFrame(a)
			if err != nil {
				return
			}
			_ = bus.WriteFrame(a, bus.Frame{Cmd: req.Cmd | RespFlag, Seq: req.Seq,
				Device: req.Device + 1, Payload: []byte{StatusOK}})
			_ = bus.WriteFrame(a, bus.Frame{Cmd: req.Cmd | RespFlag, Seq: req.Seq,
				Device: req.Device, Payload: []byte{StatusOK}})
		}
	}()
	t.Cleanup(func() { a.Close(); b.Close() })
	cl := NewClient(b)
	cl.Timeout = 5 * time.Second
	if err := cl.Device(3).Ping(); err != nil {
		t.Fatalf("ping through stale cross-device frame: %v", err)
	}
}
