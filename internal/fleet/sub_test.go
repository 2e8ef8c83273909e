package fleet

// Push subscription tests: the live-telemetry wire contract. The load-
// bearing properties are (1) a subscriber — however slow — never
// stalls the tick barrier, with drops accounted exactly; (2) the
// delta-encoded metric stream decodes to the device's actual state,
// including across drop-induced resets; (3) subscriptions survive
// registry churn and tear down with their connection; (4) the push
// frames are invisible to legacy request/response clients.

import (
	"errors"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"sdb/internal/bus"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/pmic"
)

// subFleet builds a served fleet with push-friendly defaults.
func subFleet(t *testing.T, cfg Config, durS float64, ids ...uint16) (*Fleet, *pmic.Client) {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	f := New(cfg)
	t.Cleanup(f.Close)
	for _, id := range ids {
		if err := f.Add(id, deviceConfig(t, id, durS)); err != nil {
			t.Fatal(err)
		}
	}
	srv, cli := net.Pipe()
	go f.Serve(srv)
	t.Cleanup(func() { cli.Close() })
	c := pmic.NewClient(cli)
	c.Timeout = 5 * time.Second
	return f, c
}

// readPushes drains pushes until the deadline goes quiet, returning
// them. Fails the test on any non-deadline error.
func readPushes(t *testing.T, c *pmic.Client, quiet time.Duration) []*pmic.Push {
	t.Helper()
	var out []*pmic.Push
	for {
		p, err := c.ReadPush(quiet)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return out
			}
			t.Fatalf("ReadPush: %v", err)
		}
		out = append(out, p)
	}
}

// TestSubscribeMetricsEndToEnd: a fleet-wide metric subscription
// delivers decodable per-device blocks plus the fleet rollup block,
// and the decoded values match the device's own status query.
func TestSubscribeMetricsEndToEnd(t *testing.T) {
	f, c := subFleet(t, Config{Shards: 2}, 300, 1, 2, 3)
	id, err := c.Subscribe(pmic.SubscriptionSpec{Fleet: true})
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("subscription id 0")
	}
	f.Tick(64)
	pushes := readPushes(t, c, 300*time.Millisecond)
	if len(pushes) == 0 {
		t.Fatal("no pushes after a tick")
	}
	got := map[uint16]map[string]float64{}
	for _, p := range pushes {
		if p.Kind != pmic.PushMetrics || p.SubID != id {
			t.Fatalf("unexpected push %+v", p)
		}
		for _, pd := range p.Devices {
			m := got[pd.Device]
			if m == nil {
				m = map[string]float64{}
				got[pd.Device] = m
			}
			for _, s := range pd.Values {
				m[s.Name] = s.Value
			}
		}
	}
	if got[pmic.PushFleetDevice] == nil {
		t.Fatalf("no fleet rollup block; devices seen: %v", got)
	}
	if n := got[pmic.PushFleetDevice]["fleet_devices"]; n != 3 {
		t.Fatalf("fleet_devices = %g, want 3", n)
	}
	for _, dev := range []uint16{1, 2, 3} {
		m := got[dev]
		if m == nil {
			t.Fatalf("device %d missing from pushes", dev)
		}
		sts, err := c.Device(dev).QueryBatteryStatus()
		if err != nil {
			t.Fatal(err)
		}
		var soc float64
		for _, s := range sts {
			soc += s.SoC
		}
		soc /= float64(len(sts))
		if d := m["soc"] - soc; d > 1e-12 || d < -1e-12 {
			t.Fatalf("device %d pushed soc %g, firmware says %g", dev, m["soc"], soc)
		}
		if m["steps"] != 64 {
			t.Fatalf("device %d pushed steps %g, want 64", dev, m["steps"])
		}
	}
}

// TestSubscribeDeltasAcrossTicks: later pushes carry only changed
// values as deltas, and the decoded stream tracks the live state.
func TestSubscribeDeltasAcrossTicks(t *testing.T) {
	f, c := subFleet(t, Config{Shards: 1}, 300, 1)
	if _, err := c.Subscribe(pmic.SubscriptionSpec{Fleet: true, Globs: []string{"soc", "steps"}}); err != nil {
		t.Fatal(err)
	}
	last := map[string]float64{}
	for tick := 1; tick <= 3; tick++ {
		f.Tick(32)
		for _, p := range readPushes(t, c, 200*time.Millisecond) {
			for _, pd := range p.Devices {
				if pd.Device != 1 {
					t.Fatalf("glob-filtered sub pushed device %d block: %+v", pd.Device, pd)
				}
				for _, s := range pd.Values {
					if s.Name != "soc" && s.Name != "steps" {
						t.Fatalf("glob [soc steps] leaked %q", s.Name)
					}
					last[s.Name] = s.Value
				}
			}
		}
		if want := float64(32 * tick); last["steps"] != want {
			t.Fatalf("after tick %d decoded steps = %g, want %g", tick, last["steps"], want)
		}
	}
}

// TestSlowSubscriberNeverStallsBarrier is the backpressure proof and
// the ci live-telemetry soak: a 200-device fleet streams to several
// live subscribers while one deliberately slow subscriber reads
// NOTHING for the whole run. The barrier must finish on the watchdog
// clock regardless, the slow queue must fill and drop with the drops
// counted, and afterwards every subscriber's ledger balances exactly:
// delivered = pushed - dropped.
func TestSlowSubscriberNeverStallsBarrier(t *testing.T) {
	const (
		devices = 200
		readers = 3 // live subscribers that keep up
	)
	f := New(Config{Shards: 4, Obs: obs.NewRegistry(), SubQueue: 8})
	t.Cleanup(f.Close)
	for id := uint16(1); id <= devices; id++ {
		if err := f.Add(id, deviceConfig(t, id, 300)); err != nil {
			t.Fatal(err)
		}
	}
	dial := func() *pmic.Client {
		srv, cli := net.Pipe()
		go f.Serve(srv)
		t.Cleanup(func() { cli.Close() })
		c := pmic.NewClient(cli)
		c.Timeout = 5 * time.Second
		return c
	}

	// Live subscribers: read continuously for the whole run. After the
	// run freezes the counters, each is told exactly how many frames
	// its ledger owes and reads until it has them — a missing frame
	// times the reader out, an extra one overshoots the equality check.
	type tally struct {
		sub uint64
		got uint64
		err error
	}
	counted := make(chan tally, readers)
	expected := make([]chan uint64, readers)
	liveIDs := make([]uint64, readers)
	for i := 0; i < readers; i++ {
		c := dial()
		subID, err := c.Subscribe(pmic.SubscriptionSpec{Fleet: true, Signals: pmic.SubSigMetrics})
		if err != nil {
			t.Fatal(err)
		}
		liveIDs[i] = subID
		expectC := make(chan uint64, 1)
		expected[i] = expectC
		go func() {
			r := tally{sub: subID}
			want := uint64(1<<64 - 1)
			for r.got < want {
				select {
				case want = <-expectC:
					continue
				default:
				}
				_, err := c.ReadPush(500 * time.Millisecond)
				if err == nil {
					r.got++
					continue
				}
				if !errors.Is(err, os.ErrDeadlineExceeded) {
					r.err = err
					break
				}
			}
			if r.err == nil {
				// Ledger balanced; anything further is an unaccounted frame.
				if _, err := c.ReadPush(300 * time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
					r.err = errors.New("frame beyond what the ledger owes")
				}
			}
			counted <- r
		}()
	}

	// The deliberately slow subscriber: all three signal planes, zero
	// reads until the run is over.
	slow := dial()
	slowID, err := slow.Subscribe(pmic.SubscriptionSpec{Fleet: true, Signals: pmic.SubSigMetrics | pmic.SubSigTrace | pmic.SubSigAlerts})
	if err != nil {
		t.Fatal(err)
	}

	// Drain the whole fleet. A barrier stall hangs the watchdog, not
	// just slows the test.
	done := make(chan struct{})
	go func() {
		f.RunToCompletion(64)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("tick barrier stalled behind an unread subscriber")
	}

	// No more ticks run, so the pushed/dropped counters are frozen.
	byID := map[uint64]pmic.SubStat{}
	for _, s := range f.SubStats() {
		byID[s.ID] = s
	}
	if len(byID) != readers+1 {
		t.Fatalf("SubStats has %d entries, want %d", len(byID), readers+1)
	}
	ss := byID[slowID]
	if ss.Dropped == 0 {
		t.Fatalf("unread subscriber with queue 8 dropped nothing (pushed %d) — backpressure untested", ss.Pushed)
	}
	if ss.Dropped > ss.Pushed {
		t.Fatalf("dropped %d > pushed %d", ss.Dropped, ss.Pushed)
	}

	// Drain the slow subscriber: what finally arrives must be exactly
	// pushed - dropped frames.
	received := uint64(len(readPushes(t, slow, 500*time.Millisecond)))
	if want := ss.Pushed - ss.Dropped; received != want {
		t.Fatalf("slow sub drop ledger broken: received %d frames, pushed %d - dropped %d = %d",
			received, ss.Pushed, ss.Dropped, want)
	}

	// Live subscribers settle to the same exact ledger, per subscriber:
	// tell each how many frames it is owed and wait for it to collect
	// them all (and nothing more).
	for i := 0; i < readers; i++ {
		s := byID[liveIDs[i]]
		expected[i] <- s.Pushed - s.Dropped
	}
	for i := 0; i < readers; i++ {
		select {
		case r := <-counted:
			if r.err != nil {
				t.Fatalf("live subscriber %d: %v", r.sub, r.err)
			}
			s := byID[r.sub]
			if want := s.Pushed - s.Dropped; r.got != want {
				t.Fatalf("live sub %d ledger broken: received %d frames, pushed %d - dropped %d = %d",
					r.sub, r.got, s.Pushed, s.Dropped, want)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("live subscriber never collected the frames its ledger owes")
		}
	}

	// The wire-level stats view agrees with the server-side one.
	wire, err := slow.FleetSubs()
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != readers+1 {
		t.Fatalf("FleetSubs over the wire has %d entries, want %d", len(wire), readers+1)
	}
	for _, w := range wire {
		if w != byID[w.ID] {
			t.Fatalf("FleetSubs entry %+v disagrees with server %+v", w, byID[w.ID])
		}
	}
}

// TestPushResetAfterDrop: after queue-full drops break the delta
// chain, the stream must re-converge via a Reset push whose decoded
// values match the firmware's ground truth.
func TestPushResetAfterDrop(t *testing.T) {
	f, c := subFleet(t, Config{Shards: 2, SubQueue: 1}, 1200, 1, 2, 3, 4, 5, 6, 7, 8)
	if _, err := c.Subscribe(pmic.SubscriptionSpec{Fleet: true}); err != nil {
		t.Fatal(err)
	}
	// Tick without reading: the size-1 queue guarantees drops.
	for i := 0; i < 10; i++ {
		f.Tick(16)
	}
	if st := f.SubStats(); st[0].Dropped == 0 {
		t.Fatal("no drops with queue size 1; test premise broken")
	}
	readPushes(t, c, 300*time.Millisecond) // discard the stale backlog
	// One more tick, now reading: the first frame must carry Reset and
	// the re-based values must match a direct query.
	f.Tick(16)
	pushes := readPushes(t, c, 300*time.Millisecond)
	if len(pushes) == 0 {
		t.Fatal("no pushes after drops cleared")
	}
	if !pushes[0].Reset {
		t.Fatalf("first push after drops not flagged Reset: %+v", pushes[0])
	}
	soc := map[uint16]float64{}
	for _, p := range pushes {
		for _, pd := range p.Devices {
			for _, s := range pd.Values {
				if s.Name == "soc" {
					soc[pd.Device] = s.Value
				}
			}
		}
	}
	for _, dev := range []uint16{1, 5, 8} {
		got, ok := soc[dev]
		if !ok {
			t.Fatalf("reset barrier omitted device %d", dev)
		}
		sts, err := c.Device(dev).QueryBatteryStatus()
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for _, s := range sts {
			want += s.SoC
		}
		want /= float64(len(sts))
		if d := got - want; d > 1e-12 || d < -1e-12 {
			t.Fatalf("post-reset soc for device %d = %g, firmware says %g", dev, got, want)
		}
	}
}

// TestSubscriptionChurn: device-scoped subscriptions follow registry
// churn — a removed device's blocks stop, a re-added one's resume —
// and unsubscribing stops the stream for good.
func TestSubscriptionChurn(t *testing.T) {
	f, c := subFleet(t, Config{Shards: 2}, 1200, 1, 2)
	subID, err := c.Subscribe(pmic.SubscriptionSpec{Devices: []uint16{2}})
	if err != nil {
		t.Fatal(err)
	}
	devsSeen := func(pushes []*pmic.Push) map[uint16]bool {
		seen := map[uint16]bool{}
		for _, p := range pushes {
			for _, pd := range p.Devices {
				if pd.Device != pmic.PushFleetDevice {
					seen[pd.Device] = true
				}
			}
		}
		return seen
	}
	f.Tick(16)
	if seen := devsSeen(readPushes(t, c, 200*time.Millisecond)); !seen[2] || seen[1] {
		t.Fatalf("device-scoped sub saw %v, want only device 2", seen)
	}
	if !f.Remove(2) {
		t.Fatal("remove failed")
	}
	f.Tick(16)
	if seen := devsSeen(readPushes(t, c, 200*time.Millisecond)); seen[2] {
		t.Fatal("removed device still pushed")
	}
	// Re-register under the same id: the subscription picks it back up.
	if err := f.Add(2, deviceConfig(t, 2, 1200)); err != nil {
		t.Fatal(err)
	}
	f.Tick(16)
	if seen := devsSeen(readPushes(t, c, 200*time.Millisecond)); !seen[2] {
		t.Fatal("re-added device not pushed")
	}
	if err := c.Unsubscribe(subID); err != nil {
		t.Fatal(err)
	}
	f.Tick(16)
	if got := readPushes(t, c, 200*time.Millisecond); len(got) != 0 {
		t.Fatalf("%d pushes after unsubscribe", len(got))
	}
	if st := f.SubStats(); len(st) != 0 {
		t.Fatalf("SubStats after unsubscribe = %+v", st)
	}
}

// TestSubscriptionQuarantineSkipsDevice: a quarantined device vanishes
// from pushes (its state is suspect) while its neighbors keep
// streaming.
func TestSubscriptionQuarantineSkipsDevice(t *testing.T) {
	f, c := subFleet(t, Config{Shards: 2}, 1200, 1, 2)
	if _, err := c.Subscribe(pmic.SubscriptionSpec{Fleet: true}); err != nil {
		t.Fatal(err)
	}
	f.Tick(16)
	readPushes(t, c, 200*time.Millisecond)
	// Quarantine device 2 directly (the chaos tests exercise the panic
	// path; here we only need the flag's effect on the push plane).
	f.regMu.RLock()
	d := f.lookup(2)
	f.regMu.RUnlock()
	d.quarantined.Store(true)
	f.Tick(16)
	for _, p := range readPushes(t, c, 200*time.Millisecond) {
		for _, pd := range p.Devices {
			if pd.Device == 2 {
				t.Fatal("quarantined device still pushed")
			}
		}
	}
	// Neighbor still streams.
	f.Tick(16)
	alive := false
	for _, p := range readPushes(t, c, 200*time.Millisecond) {
		for _, pd := range p.Devices {
			alive = alive || pd.Device == 1
		}
	}
	if !alive {
		t.Fatal("healthy neighbor stopped pushing after quarantine")
	}
}

// TestUnsubscribeForeignConn: a connection cannot close a subscription
// it does not own.
func TestUnsubscribeForeignConn(t *testing.T) {
	f, c := subFleet(t, Config{Shards: 1}, 300, 1)
	subID, err := c.Subscribe(pmic.SubscriptionSpec{Fleet: true})
	if err != nil {
		t.Fatal(err)
	}
	srv2, cli2 := net.Pipe()
	go f.Serve(srv2)
	defer cli2.Close()
	c2 := pmic.NewClient(cli2)
	c2.Timeout = 5 * time.Second
	err = c2.Unsubscribe(subID)
	var se *pmic.StatusError
	if !errors.As(err, &se) || se.Status != pmic.StatusBadIndex {
		t.Fatalf("foreign unsubscribe: %v, want StatusBadIndex", err)
	}
	if st := f.SubStats(); len(st) != 1 {
		t.Fatalf("foreign unsubscribe removed the subscription: %+v", st)
	}
}

// TestSubscriptionDiesWithConnection: closing the owning connection
// reaps its subscriptions.
func TestSubscriptionDiesWithConnection(t *testing.T) {
	f := New(Config{Shards: 1, Obs: obs.NewRegistry()})
	t.Cleanup(f.Close)
	if err := f.Add(1, deviceConfig(t, 1, 300)); err != nil {
		t.Fatal(err)
	}
	srv, cli := net.Pipe()
	serveDone := make(chan struct{})
	go func() { f.Serve(srv); close(serveDone) }()
	c := pmic.NewClient(cli)
	c.Timeout = 5 * time.Second
	if _, err := c.Subscribe(pmic.SubscriptionSpec{Fleet: true}); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	<-serveDone
	if st := f.SubStats(); len(st) != 0 {
		t.Fatalf("subscriptions survived their connection: %+v", st)
	}
}

// TestSubscribeErrors exercises the rejection paths: malformed scope,
// empty signal set, single-device servers, and draining fleets.
func TestSubscribeErrors(t *testing.T) {
	f, c := subFleet(t, Config{Shards: 1}, 300, 1)

	// Raw malformed subscribes (the client API cannot produce these).
	raw := func(payload []byte) byte {
		t.Helper()
		srv2, cli2 := net.Pipe()
		go f.Serve(srv2)
		defer cli2.Close()
		if err := bus.WriteFrame(cli2, bus.Frame{Cmd: pmic.CmdSubscribe, Seq: 1, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		resp, err := bus.ReadFrame(cli2)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Payload) == 0 {
			t.Fatal("empty subscribe response")
		}
		return resp.Payload[0]
	}
	var w bus.Writer
	w.U8(9).U8(pmic.SubSigMetrics).F64(0).UVarint(0) // unknown scope
	if st := raw(w.Bytes()); st != pmic.StatusBadArgs {
		t.Fatalf("unknown scope -> %#02x, want BadArgs", st)
	}
	w = bus.Writer{}
	w.U8(pmic.SubScopeFleet).U8(0).F64(0).UVarint(0) // no signals
	if st := raw(w.Bytes()); st != pmic.StatusBadArgs {
		t.Fatalf("empty signal set -> %#02x, want BadArgs", st)
	}
	w = bus.Writer{}
	w.U8(pmic.SubScopeDevices).U8(pmic.SubSigMetrics).F64(0).UVarint(1 << 20) // device count lies
	if st := raw(w.Bytes()); st != pmic.StatusBadArgs {
		t.Fatalf("oversized device count -> %#02x, want BadArgs", st)
	}

	// Draining fleets refuse new subscriptions.
	f.draining.Store(true)
	_, err := c.Subscribe(pmic.SubscriptionSpec{Fleet: true})
	var se *pmic.StatusError
	if !errors.As(err, &se) || se.Status != pmic.StatusDraining {
		t.Fatalf("subscribe while draining: %v, want StatusDraining", err)
	}
}

// TestLegacyClientIgnoresPushes is the downgrade test: a connection
// subscribed by raw frames keeps working for a legacy request/response
// client — pushes are counted stale and skipped, never corrupting a
// call. This is what lets an old sdbctl talk to a pushing fleet.
func TestLegacyClientIgnoresPushes(t *testing.T) {
	f := New(Config{Shards: 1, Obs: obs.NewRegistry()})
	t.Cleanup(f.Close)
	if err := f.Add(0, deviceConfig(t, 0, 600)); err != nil {
		t.Fatal(err)
	}
	srv, cli := net.Pipe()
	go f.Serve(srv)
	t.Cleanup(func() { cli.Close() })

	// Subscribe with a raw frame — the legacy client below has no idea.
	var w bus.Writer
	w.U8(pmic.SubScopeFleet).U8(pmic.SubSigMetrics).F64(0).UVarint(0)
	if err := bus.WriteFrame(cli, bus.Frame{Cmd: pmic.CmdSubscribe, Seq: 1, Payload: w.Bytes()}); err != nil {
		t.Fatal(err)
	}
	if resp, err := bus.ReadFrame(cli); err != nil || resp.Payload[0] != pmic.StatusOK {
		t.Fatalf("raw subscribe: %v %v", resp, err)
	}

	// Generate pushes, then run plain calls through the noise: the
	// legacy client must skip the pushes as stale frames and succeed.
	c := pmic.NewClient(cli)
	c.Timeout = 5 * time.Second
	for i := 0; i < 3; i++ {
		f.Tick(32)
		if err := c.Device(0).Ping(); err != nil {
			t.Fatalf("legacy ping through push traffic: %v", err)
		}
		sts, err := c.Device(0).QueryBatteryStatus()
		if err != nil || len(sts) == 0 {
			t.Fatalf("legacy status through push traffic: %v", err)
		}
	}
}

// TestTracePushDelivery: a trace subscription streams fleet-scope
// events (here: an alert transition's trace edge) to the subscriber.
func TestTracePushDelivery(t *testing.T) {
	rules, err := ts.ParseRules("alert always steps >= 1")
	if err != nil {
		t.Fatal(err)
	}
	f, c := subFleet(t, Config{Shards: 1, Rules: rules}, 300, 1)
	if _, err := c.Subscribe(pmic.SubscriptionSpec{Fleet: true, Signals: pmic.SubSigTrace}); err != nil {
		t.Fatal(err)
	}
	f.Tick(32)
	found := false
	for _, p := range readPushes(t, c, 300*time.Millisecond) {
		if p.Kind != pmic.PushTrace {
			t.Fatalf("trace-only sub got kind %d", p.Kind)
		}
		for _, ev := range p.Events {
			if ev.Scope == "fleet" && ev.Kind == "alert.fire" && ev.Detail == "always" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("alert.fire trace event never pushed")
	}
}

// TestFleetSubsListsEveryEntry: one connection opens maxSubs
// subscriptions, many frames' worth of FleetSubs entries. FleetSubs
// returns every one in id order, and the same connection, with every
// subscription on it, keeps answering — an answer that outgrew a frame
// used to fail to encode and end the connection.
func TestFleetSubsListsEveryEntry(t *testing.T) {
	f, c := subFleet(t, Config{Shards: 1}, 300, 1)
	for i := 0; i < maxSubs; i++ {
		if _, err := c.Subscribe(pmic.SubscriptionSpec{Fleet: true, Signals: pmic.SubSigAlerts}); err != nil {
			t.Fatalf("subscription %d: %v", i, err)
		}
	}
	subs, err := c.FleetSubs()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != maxSubs || !reflect.DeepEqual(subs, f.SubStats()) {
		t.Fatalf("FleetSubs listed %d entries, the server holds %d", len(subs), len(f.SubStats()))
	}
	if err := c.Device(1).Ping(); err != nil {
		t.Fatalf("ping after listing: %v", err)
	}
	if n := len(f.SubStats()); n != maxSubs {
		t.Fatalf("%d subscriptions left after listing, want %d", n, maxSubs)
	}
}
