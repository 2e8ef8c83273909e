package pmic

// Round trips through the server-side codec: every reply and push a
// fleet or firmware encodes here must come back unchanged from the
// client decoder that reads it, and every request the client encodes
// must come back from the server-side decoder.

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sdb/internal/bus"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
)

func TestFleetRepliesRoundTrip(t *testing.T) {
	ids := make([]uint16, 5000)
	for i := range ids {
		ids[i] = uint16(3 * i)
	}
	fi := FleetInfo{Devices: 3, Shards: 2, Steps: 360, Churn: 4,
		DeviceStepsPerSec: 1234.5, CmdP99Seconds: 0.0025, Quarantined: 1, Draining: true}
	subs := []SubStat{
		{ID: 1, Signals: SubSigMetrics | SubSigTrace, FleetWide: true, Pushed: 9, Dropped: 2},
		{ID: 4, Signals: SubSigAlerts, Devices: 3, Pushed: 1},
	}
	cl := startFakeFleet(t, func(req bus.Frame) []byte {
		mode, cursor, ok := DecodeFleetInfo(req.Payload)
		switch {
		case !ok:
			t.Errorf("request %+v carries no mode or cursor", req)
		case mode == FleetList:
			i := sort.Search(len(ids), func(i int) bool { return uint64(ids[i]) >= cursor })
			return FleetListReply(req, ids[i:]).Payload
		case mode == FleetStat:
			return FleetStatReply(req, fi).Payload
		case mode == FleetSubs:
			i := sort.Search(len(subs), func(i int) bool { return subs[i].ID >= cursor })
			return FleetSubsReply(req, subs[i:]).Payload
		case mode == FleetSnapshot:
			return FleetSnapshotReply(req, "fleet.ckpt", 72586120).Payload
		}
		return Reply(req, StatusBadArgs).Payload
	})
	if got, err := cl.FleetDevices(); err != nil || !reflect.DeepEqual(got, ids) {
		t.Errorf("FleetDevices: %d ids, %v; want all %d", len(got), err, len(ids))
	}
	if st, err := cl.FleetStat(); err != nil || st != fi {
		t.Errorf("FleetStat = %+v, %v; want %+v", st, err, fi)
	}
	if ss, err := cl.FleetSubs(); err != nil || !reflect.DeepEqual(ss, subs) {
		t.Errorf("FleetSubs = %+v, %v; want %+v", ss, err, subs)
	}
	if path, size, err := cl.FleetSnapshot(); err != nil || path != "fleet.ckpt" || size != 72586120 {
		t.Errorf("FleetSnapshot = %q, %d, %v", path, size, err)
	}
	for _, p := range [][]byte{nil, {FleetList}, {FleetSubs}, {FleetSubs, 0x80}} {
		if _, _, ok := DecodeFleetInfo(p); ok {
			t.Errorf("fleet-info request %x without its mode or cursor decoded", p)
		}
	}

	// A count the payload does not carry is a malformed answer.
	cl = startFakeFleet(t, func(bus.Frame) []byte {
		var w bus.Writer
		w.U8(StatusOK).UVarint(0).U16(0xFFFF)
		return w.Bytes()
	})
	if _, err := cl.FleetSubs(); err == nil || !strings.Contains(err.Error(), "malformed fleet subs") {
		t.Errorf("FleetSubs claiming 65535 entries it does not carry returned %v", err)
	}
}

func TestSubscribeRequestRoundTrip(t *testing.T) {
	specs := []SubscriptionSpec{
		{Devices: []uint16{1, 300}, Signals: SubSigAlerts | SubSigTrace, CadenceS: 30, Globs: []string{"soc", "fleet_*"}},
		{Fleet: true}, // Subscribe sends the default signal set
	}
	var got []SubscriptionSpec
	var unsub []uint64
	cl := startFakeFleet(t, func(req bus.Frame) []byte {
		switch req.Cmd {
		case CmdSubscribe:
			spec, ok := DecodeSubscribe(req.Payload)
			if !ok {
				t.Errorf("subscribe request %x did not decode", req.Payload)
			}
			got = append(got, spec)
			return SubscribeReply(req, uint64(len(got))).Payload
		case CmdUnsubscribe:
			id, ok := DecodeUnsubscribe(req.Payload)
			if !ok {
				t.Errorf("unsubscribe request %x did not decode", req.Payload)
			}
			unsub = append(unsub, id)
		}
		return Reply(req, StatusOK).Payload
	})
	for i, spec := range specs {
		id, err := cl.Subscribe(spec)
		if err != nil || id != uint64(i+1) {
			t.Fatalf("Subscribe %d = %d, %v", i, id, err)
		}
	}
	specs[1].Signals = SubSigMetrics
	if !reflect.DeepEqual(got, specs) {
		t.Errorf("server decoded %+v, client sent %+v", got, specs)
	}
	if err := cl.Unsubscribe(2); err != nil || !reflect.DeepEqual(unsub, []uint64{2}) {
		t.Errorf("Unsubscribe: %v, server saw %v", err, unsub)
	}

	for _, p := range [][]byte{
		nil,
		{9, SubSigMetrics, 0, 0, 0, 0, 0, 0, 0, 0, 0},                   // unknown scope
		{SubScopeDevices, SubSigMetrics, 0, 0, 0, 0, 0, 0, 0, 0, 3},     // three ids, none sent
		{SubScopeFleet, SubSigMetrics, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 9}, // glob cut short
	} {
		if _, ok := DecodeSubscribe(p); ok {
			t.Errorf("malformed subscribe %x decoded", p)
		}
	}
	if spec, ok := DecodeSubscribe([]byte{SubScopeFleet, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0}); !ok ||
		spec.Signals != SubSigMetrics|SubSigTrace|SubSigAlerts {
		t.Errorf("unknown signal bits not dropped: %+v, %v", spec, ok)
	}
	if _, ok := DecodeUnsubscribe([]byte{0x80}); ok {
		t.Error("a cut unsubscribe id decoded")
	}
}

func TestPushEncodersRoundTrip(t *testing.T) {
	c, _ := pushClient()
	decode := func(fr bus.Frame) *Push {
		t.Helper()
		p, err := c.decodePush(fr)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	bits := math.Float64bits

	var mp MetricsPush
	mp.Block(PushFleetDevice, 60, []int{0}, []uint64{bits(3)})
	mp.Block(5, 60, []int{1, 2}, []uint64{bits(0.5), bits(120)})
	fr := mp.Frame(3, true, 1, []PushName{{0, "fleet_devices"}, {1, "soc"}, {2, "steps"}})
	if mp.Blocks() != 0 || mp.Full() {
		t.Errorf("Frame left %d blocks behind", mp.Blocks())
	}
	want := &Push{Kind: PushMetrics, SubID: 3, Reset: true, Dropped: 1, Devices: []PushDevice{
		{Device: PushFleetDevice, TimeS: 60, Values: []PushSample{{"fleet_devices", 3}}},
		{Device: 5, TimeS: 60, Values: []PushSample{{"soc", 0.5}, {"steps", 120}}},
	}}
	if got := decode(fr); !reflect.DeepEqual(got, want) {
		t.Errorf("reset frame decoded to %+v, want %+v", got, want)
	}
	mp.Block(5, 120, []int{2}, []uint64{bits(120) ^ bits(240)})
	want = &Push{Kind: PushMetrics, SubID: 3, Dropped: 1, Devices: []PushDevice{
		{Device: 5, TimeS: 120, Values: []PushSample{{"steps", 240}}},
	}}
	if got := decode(mp.Frame(3, false, 1, nil)); !reflect.DeepEqual(got, want) {
		t.Errorf("delta frame decoded to %+v, want %+v", got, want)
	}
	for !mp.Full() {
		mp.Block(7, 1, []int{0, 1, 2}, []uint64{1, 2, 3})
	}
	if fr := mp.Frame(3, false, 1, nil); len(fr.Payload) > bus.MaxPayload {
		t.Errorf("a full frame holds %d bytes, over the %d cap", len(fr.Payload), bus.MaxPayload)
	}

	evs := make([]obs.Event, 200)
	for i := range evs {
		evs[i] = obs.Event{Seq: uint64(i + 1), TimeS: float64(i), Scope: "fleet", Kind: "alert.fire",
			Cell: i % 3, V1: 0.5, Detail: strings.Repeat("x", i%7)}
	}
	var gotEvs []obs.Event
	frames := 0
	for rest := evs; len(rest) > 0; frames++ {
		fr, n := TracePush(3, 0, rest)
		p := decode(fr)
		if p.Kind != PushTrace || len(p.Events) != n || n == 0 {
			t.Fatalf("trace frame: kind %d, %d events, took %d", p.Kind, len(p.Events), n)
		}
		gotEvs = append(gotEvs, p.Events...)
		rest = rest[n:]
	}
	if !reflect.DeepEqual(gotEvs, evs) || frames < 2 {
		t.Errorf("trace pushes over %d frames decoded to %d events, want all %d over several frames", frames, len(gotEvs), len(evs))
	}

	trs := make([]AlertTransition, 150)
	for i := range trs {
		trs[i] = AlertTransition{Device: uint16(i), TimeS: 60, Rule: strings.Repeat("r", 1+i%20),
			From: ts.StatePending, To: ts.StateFiring, Value: 0.4, Threshold: 0.62}
	}
	var gotTrs []AlertTransition
	frames = 0
	for rest := trs; len(rest) > 0; frames++ {
		fr, n := AlertPush(4, 2, rest)
		p := decode(fr)
		if p.Kind != PushAlert || p.SubID != 4 || p.Dropped != 2 || len(p.Alerts) != n {
			t.Fatalf("alert frame: %+v took %d", p, n)
		}
		gotTrs = append(gotTrs, p.Alerts...)
		rest = rest[n:]
	}
	if !reflect.DeepEqual(gotTrs, trs) || frames < 2 {
		t.Errorf("alert pushes over %d frames decoded to %d transitions, want all %d over several frames", frames, len(gotTrs), len(trs))
	}
}

// TestSeriesNamesRejectsBackwardCursor: a paged listing whose cursor
// does not advance is an error, not a loop.
func TestSeriesNamesRejectsBackwardCursor(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	cl := startFakeFleet(t, func(req bus.Frame) []byte {
		q, ok := DecodeSeriesRequest(req.Payload)
		if !ok || q.Mode != SeriesList {
			t.Errorf("SeriesNames sent %x, want a list request", req.Payload)
		}
		// Pages of two names; the second page points back at the first.
		var w bus.Writer
		w.U8(StatusOK).UVarint(2).U16(2).Str(names[q.Cursor]).Str(names[q.Cursor+1])
		return w.Bytes()
	})
	if _, err := cl.SeriesNames(); err == nil || !strings.Contains(err.Error(), "went backwards") {
		t.Fatalf("a repeated cursor returned %v", err)
	}
}

func TestSeriesListReplyCursors(t *testing.T) {
	names := make([]string, 300)
	for i := range names {
		names[i] = strings.Repeat("n", 20) + string(rune('a'+i%26))
	}
	read := func(fr bus.Frame) (next uint64, got []string) {
		r := bus.NewReader(fr.Payload)
		r.U8()
		next = r.UVarint()
		for n := int(r.U16()); n > 0; n-- {
			got = append(got, r.Str())
		}
		if r.Err() != nil || len(fr.Payload) > bus.MaxPayload {
			t.Fatalf("page of %d bytes: %v", len(fr.Payload), r.Err())
		}
		return next, got
	}
	var all []string
	for cursor, pages := uint64(0), 0; ; pages++ {
		next, got := read(SeriesListReply(bus.Frame{}, names, cursor))
		all = append(all, got...)
		if next == 0 {
			if pages == 0 {
				t.Error("300 names fit one page; the test pages nothing")
			}
			break
		}
		cursor = next
	}
	if !reflect.DeepEqual(all, names) {
		t.Errorf("pages reassemble %d names, want %d", len(all), len(names))
	}
	for _, start := range []uint64{uint64(len(names)), uint64(len(names)) + 5, math.MaxUint64} {
		if next, got := read(SeriesListReply(bus.Frame{}, names, start)); next != 0 || len(got) != 0 {
			t.Errorf("cursor %d: next %d, %d names; want an empty last page", start, next, len(got))
		}
	}
}
