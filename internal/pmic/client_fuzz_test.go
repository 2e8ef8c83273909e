package pmic

import (
	"testing"

	"sdb/internal/bus"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
)

// replyCase is one client call whose reply decoder FuzzClientReplies
// feeds: it reports how many items the call decoded and how many it
// made room for. min is the fewest payload bytes one item takes on the
// wire (0 for a call that decodes no list).
type replyCase struct {
	name string
	min  int
	call func(c *Client) (n, room int, err error)
	seed bus.Frame
}

func wireLen(enc func(w *bus.Writer)) int {
	var w bus.Writer
	enc(&w)
	return len(w.Bytes())
}

func replyCases() []replyCase {
	sts := []BatteryStatus{{Name: "Watch-200", Chem: "LCO", SoC: 0.5}, {Index: 1, Name: "BendStrap-200", Bendable: true}}
	reg := obs.NewRegistry()
	reg.Counter("sdb_pmic_steps_total").Add(3)
	dev := DeviceClient{dev: 7}
	on := func(c *Client) DeviceClient { dev.c = c; return dev }
	return []replyCase{
		{"status", wireLen(func(w *bus.Writer) { encodeStatus(w, BatteryStatus{}) }), func(c *Client) (int, int, error) {
			out, err := on(c).QueryBatteryStatus()
			return len(out), cap(out), err
		}, StatusReply(bus.Frame{}, sts)},
		{"ratios", 8, func(c *Client) (int, int, error) {
			dis, chg, err := on(c).Ratios()
			return len(dis) + len(chg), cap(dis) + cap(chg), err
		}, RatiosReply(bus.Frame{}, []float64{0.25, 0.75}, []float64{1, 0})},
		{"trace", encodedEventLen(obs.Event{}), func(c *Client) (int, int, error) {
			out, err := on(c).TraceEvents()
			return len(out), cap(out), err
		}, TraceReply(bus.Frame{}, []obs.Event{{Seq: 4, TimeS: 60, Scope: "fleet", Kind: "alert", Cell: -1, Detail: "hot"}})},
		{"series", 8, func(c *Client) (int, int, error) {
			win, err := on(c).Series("sdb_pmic_cell0_soc")
			return len(win.Values), cap(win.Values), err
		}, SeriesReply(bus.Frame{}, ts.Window{Name: "sdb_pmic_cell0_soc", StepS: 60, Total: 2, Values: []float64{0.9, 0.8}})},
		{"series names", 2, func(c *Client) (int, int, error) {
			out, err := on(c).SeriesNames()
			return len(out), cap(out), err
		}, SeriesListReply(bus.Frame{}, []string{"sdb_pmic_cell0_soc", "sdb_pmic_load_w"}, 0)},
		{"metrics", 1, func(c *Client) (int, int, error) {
			text, err := on(c).Metrics()
			return len(text), len(text), err
		}, MetricsReply(bus.Frame{}, reg, 0)},
		{"fleet devices", 2, func(c *Client) (int, int, error) {
			ids, err := c.FleetDevices()
			return len(ids), cap(ids), err
		}, FleetListReply(bus.Frame{}, []uint16{2, 4, 9})},
		{"fleet subs", wireLen(func(w *bus.Writer) { putSubStat(w, SubStat{}) }), func(c *Client) (int, int, error) {
			subs, err := c.FleetSubs()
			return len(subs), cap(subs), err
		}, FleetSubsReply(bus.Frame{}, []SubStat{{ID: 1, Signals: SubSigMetrics, FleetWide: true, Pushed: 9, Dropped: 1}})},
		{"fleet stat", 0, func(c *Client) (int, int, error) {
			_, err := c.FleetStat()
			return 0, 0, err
		}, FleetStatReply(bus.Frame{}, FleetInfo{Devices: 2, Shards: 1, Steps: 100, Quarantined: 1, Draining: true})},
		{"fleet snapshot", 0, func(c *Client) (int, int, error) {
			_, _, err := c.FleetSnapshot()
			return 0, 0, err
		}, FleetSnapshotReply(bus.Frame{}, "fleet.sdbsnap", 4096)},
	}
}

// FuzzClientReplies answers one client call with a fuzzed reply payload
// over a pipe, the fake server echoing the request's sequence number.
// Every payload must decode to a value or an error without a panic, and
// no call may make room for more items than the payload can hold. The
// corpus starts from each call's reply encoder.
func FuzzClientReplies(f *testing.F) {
	cases := replyCases()
	for i, rc := range cases {
		f.Add(byte(i), rc.seed.Payload)
	}
	f.Fuzz(func(t *testing.T, which byte, payload []byte) {
		rc := cases[int(which)%len(cases)]
		payload = payload[:min(len(payload), bus.MaxPayload)]
		c := startFakeFleet(t, func(bus.Frame) []byte { return payload })
		n, room, err := rc.call(c)
		if rc.min == 0 {
			return
		}
		// A list of pages succeeds on one page; a failed call may have
		// read two before the cursor stopped advancing, and append may
		// round its growth up.
		if err == nil && n*rc.min > len(payload) {
			t.Fatalf("%s: %d items decoded from a %d-byte payload", rc.name, n, len(payload))
		}
		if most := 2*(2*len(payload)/rc.min) + 4; room > most {
			t.Fatalf("%s: room for %d items from a %d-byte payload (err %v)", rc.name, room, len(payload), err)
		}
	})
}
