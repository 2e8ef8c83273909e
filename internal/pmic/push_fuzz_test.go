package pmic

import (
	"math"
	"strings"
	"testing"

	"sdb/internal/bus"
	"sdb/internal/obs"
)

// pushClient is a client with one subscription's decode state and
// link counters on their own registry, for driving decodePush without
// a wire.
func pushClient() (*Client, *obs.Registry) {
	reg := obs.NewRegistry()
	return &Client{subs: map[uint64]*subDecodeState{}, om: newClientMetrics(reg)}, reg
}

// dictSize is how many metric names the client holds across all
// subscriptions.
func dictSize(c *Client) int {
	n := 0
	for _, st := range c.subs {
		n += len(st.names)
	}
	return n
}

// TestDecodePushRejectsWildMetricIDs: a metric id the server could not
// have assigned is an error, not a panic or a dictionary sized by the
// frame's claim, and bufferPush counts such a frame as stale.
func TestDecodePushRejectsWildMetricIDs(t *testing.T) {
	frame := func(build func(w *bus.Writer)) bus.Frame {
		var w bus.Writer
		w.U8(PushMetrics).U8(0).UVarint(1).UVarint(0)
		build(&w)
		return pushFrame(w.Bytes())
	}
	for _, tc := range []struct {
		name string
		fr   bus.Frame
		want string
	}{
		{"announced id 2^64-1", frame(func(w *bus.Writer) { w.UVarint(1).UVarint(math.MaxUint64).Str("") }), "past"},
		{"announced id 2^24", frame(func(w *bus.Writer) { w.UVarint(1).UVarint(1 << 24).Str("") }), "past"},
		{"announcement count past the frame", frame(func(w *bus.Writer) { w.UVarint(1 << 40).UVarint(0).Str("soc") }), "announces"},
		{"value id 2^64-1", frame(func(w *bus.Writer) {
			w.UVarint(1).UVarint(0).Str("soc")
			w.UVarint(1).U16(3).F64(60).UVarint(1).UVarint(math.MaxUint64).UVarint(0)
		}), "unknown metric id"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, reg := pushClient()
			if _, err := c.decodePush(tc.fr); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decodePush = %v, want an error containing %q", err, tc.want)
			}
			if n := dictSize(c); n > len(tc.fr.Payload) {
				t.Fatalf("a %d-byte frame grew the dictionary to %d names", len(tc.fr.Payload), n)
			}
			c.bufferPush(tc.fr)
			if got := reg.Counter("sdb_bus_stale_frames_total").Value(); got != 1 {
				t.Fatalf("stale frames = %d, want 1", got)
			}
			if len(c.pushBuf) != 0 {
				t.Fatal("a malformed push was buffered")
			}
		})
	}
}

// FuzzPushDecode feeds decodePush arbitrary push payloads, after a
// valid frame has announced a two-name dictionary. It must not panic,
// and no frame may grow the dictionary by more names than it has bytes.
func FuzzPushDecode(f *testing.F) {
	var dict bus.Writer
	dict.U8(PushMetrics).U8(0).UVarint(1).UVarint(0)
	dict.UVarint(2).UVarint(0).Str("soc").UVarint(1).Str("load")
	dict.UVarint(1).U16(3).F64(60).UVarint(2).UVarint(0).UVarint(math.Float64bits(0.5)).UVarint(1).UVarint(7)
	f.Add(dict.Bytes())
	var reset bus.Writer
	reset.U8(PushMetrics).U8(PushFlagReset).UVarint(1).UVarint(4).UVarint(1).UVarint(2).Str("temp").UVarint(0)
	f.Add(reset.Bytes())
	var wild bus.Writer
	wild.U8(PushMetrics).U8(0).UVarint(1).UVarint(0).UVarint(1).UVarint(math.MaxUint64)
	f.Add(wild.Bytes())
	var alert bus.Writer
	alert.U8(PushAlert).UVarint(1).UVarint(0).UVarint(1).U16(2).F64(30).Str("hot").U8(0).U8(2).F64(61).F64(60)
	f.Add(alert.Bytes())
	var trace bus.Writer
	trace.U8(PushTrace).UVarint(1).UVarint(0).U16(0)
	f.Add(trace.Bytes())
	f.Add([]byte{0x7F})
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, payload []byte) {
		c, _ := pushClient()
		if _, err := c.decodePush(pushFrame(dict.Bytes())); err != nil {
			t.Fatal(err)
		}
		before := dictSize(c)
		p, err := c.decodePush(pushFrame(payload))
		if grown := dictSize(c) - before; grown > len(payload) {
			t.Fatalf("a %d-byte payload grew the dictionary by %d names", len(payload), grown)
		}
		if err == nil && p == nil {
			t.Fatal("decodePush returned neither a push nor an error")
		}
	})
}
