package fleet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"sdb/internal/bus"
	"sdb/internal/obs"
	"sdb/internal/pmic"
)

// serveFleet builds a fleet with the given device ids, serves it over
// an in-process pipe, and returns a connected client.
func serveFleet(t *testing.T, shards int, durS float64, ids ...uint16) (*Fleet, *pmic.Client) {
	t.Helper()
	f := New(Config{Shards: shards, Obs: obs.NewRegistry()})
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

// TestServeMultiplexesDevices drives several devices over ONE
// connection: per-device commands must land on (and only on) the
// addressed device.
func TestServeMultiplexesDevices(t *testing.T) {
	ids := []uint16{0, 1, 2, 7, 40000}
	f, c := serveFleet(t, 2, 300, ids...)

	// Distinct discharge ratios per device, then read every one back.
	for k, id := range ids {
		d := c.Device(id)
		if err := d.Ping(); err != nil {
			t.Fatalf("ping device %d: %v", id, err)
		}
		lead := 0.5 + float64(k)*0.1
		if err := d.Discharge([]float64{lead, 1 - lead}); err != nil {
			t.Fatalf("discharge device %d: %v", id, err)
		}
	}
	for k, id := range ids {
		dis, _, err := c.Device(id).Ratios()
		if err != nil {
			t.Fatalf("ratios device %d: %v", id, err)
		}
		want := 0.5 + float64(k)*0.1
		if len(dis) != 2 || dis[0] != want {
			t.Fatalf("device %d ratios = %v, want lead %g — cross-device bleed?", id, dis, want)
		}
	}

	// Step the fleet while the connection stays live, then check state
	// diverged per device (different loads/SoCs by construction).
	f.RunToCompletion(64)
	socs := map[uint16]float64{}
	for _, id := range ids {
		sts, err := c.Device(id).QueryBatteryStatus()
		if err != nil {
			t.Fatalf("status device %d: %v", id, err)
		}
		if len(sts) != 2 {
			t.Fatalf("device %d reported %d batteries", id, len(sts))
		}
		socs[id] = sts[0].SoC
	}
	if socs[1] == socs[2] || socs[0] == socs[7] {
		t.Fatalf("distinct devices ended at identical SoC: %v", socs)
	}
}

// TestServeNoDevice: frames addressing an unregistered id are answered
// with StatusNoDevice, a non-retryable rejection.
func TestServeNoDevice(t *testing.T) {
	_, c := serveFleet(t, 1, 60, 1)
	err := c.Device(99).Ping()
	var se *pmic.StatusError
	if !errors.As(err, &se) || se.Status != pmic.StatusNoDevice {
		t.Fatalf("ping unknown device: %v, want StatusNoDevice", err)
	}
	if se.Retryable() {
		t.Fatal("StatusNoDevice must not be retryable")
	}
}

// TestServeFleetInfo exercises the FleetList and FleetStat queries
// end to end.
func TestServeFleetInfo(t *testing.T) {
	f, c := serveFleet(t, 3, 120, 4, 2, 9)
	ids, err := c.FleetDevices()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 2 || ids[1] != 4 || ids[2] != 9 {
		t.Fatalf("FleetDevices() = %v, want [2 4 9]", ids)
	}
	f.RunToCompletion(0)
	st, err := c.FleetStat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Devices != 3 || st.Shards != 3 || st.Steps != 3*120 {
		t.Fatalf("FleetStat() = %+v", st)
	}
	if st.CmdP99Seconds <= 0 {
		t.Fatalf("CmdP99Seconds = %g after served commands", st.CmdP99Seconds)
	}
}

// TestServeStopsCleanlyOnClose: when the transport dies mid-session,
// from either end, Serve returns nil and leaves no goroutine behind —
// the connection's push subscription included.
func TestServeStopsCleanlyOnClose(t *testing.T) {
	for _, local := range []bool{false, true} {
		f := New(Config{Shards: 1, Obs: obs.NewRegistry()})
		if err := f.Add(0, deviceConfig(t, 0, 60)); err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		srv, cli := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- f.Serve(srv) }()
		c := pmic.NewClient(cli)
		c.Timeout = 5 * time.Second
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Subscribe(pmic.SubscriptionSpec{Fleet: true, Signals: pmic.SubSigMetrics}); err != nil {
			t.Fatal(err)
		}
		if local {
			srv.Close()
		}
		cli.Close()
		if err := <-done; err != nil {
			t.Errorf("local close %v: Serve returned %v, want nil", local, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("local close %v: %d goroutines after Serve returned, %d before it started", local, n, before)
		}
		f.Close()
	}
}

// TestServeLegacyV1Client is the downgrade test: a pre-fleet client
// speaks bare version-1 frames (no device id). The fleet server must
// route them to device 0 and answer with version-1 frames — on the
// wire, the fleet is indistinguishable from a single-device server.
func TestServeLegacyV1Client(t *testing.T) {
	f := New(Config{Shards: 1, Obs: obs.NewRegistry()})
	defer f.Close()
	if err := f.Add(0, deviceConfig(t, 0, 60)); err != nil {
		t.Fatal(err)
	}
	srv, cli := net.Pipe()
	go f.Serve(srv)
	defer cli.Close()

	// Hand-rolled v1 request: what an old client's bus.Encode emitted.
	wire, err := bus.Encode(bus.Frame{Cmd: pmic.CmdPing, Seq: 3})
	if err != nil {
		t.Fatal(err)
	}
	if wire[1] != bus.Version {
		t.Fatalf("device-0 frame encoded as version %d", wire[1])
	}
	if _, err := cli.Write(wire); err != nil {
		t.Fatal(err)
	}
	// Read the raw response and check the wire layout is v1 before
	// parsing: an old client's decoder would reject anything else.
	raw := make([]byte, 9) // 6 header + 1 status + 2 crc
	if _, err := io.ReadFull(cli, raw); err != nil {
		t.Fatal(err)
	}
	if raw[0] != bus.SOF || raw[1] != bus.Version {
		t.Fatalf("fleet answered a v1 client with version %d", raw[1])
	}
	resp, err := bus.ReadFrame(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cmd != pmic.CmdPing|pmic.RespFlag || resp.Seq != 3 || resp.Device != 0 {
		t.Fatalf("v1 ping response = %+v", resp)
	}
	if len(resp.Payload) != 1 || resp.Payload[0] != pmic.StatusOK {
		t.Fatalf("v1 ping status = %v", resp.Payload)
	}
}

// TestServeChurnVisibleToClients: removing a device mid-session turns
// its id into StatusNoDevice while other devices keep answering.
func TestServeChurnVisibleToClients(t *testing.T) {
	f, c := serveFleet(t, 2, 60, 1, 2)
	if err := c.Device(2).Ping(); err != nil {
		t.Fatal(err)
	}
	if !f.Remove(2) {
		t.Fatal("remove failed")
	}
	err := c.Device(2).Ping()
	var se *pmic.StatusError
	if !errors.As(err, &se) || se.Status != pmic.StatusNoDevice {
		t.Fatalf("ping removed device: %v", err)
	}
	if err := c.Device(1).Ping(); err != nil {
		t.Fatalf("surviving device broken after churn: %v", err)
	}
	// Late re-registration under the same id resurrects it.
	if err := f.Add(2, deviceConfig(t, 2, 60)); err != nil {
		t.Fatal(err)
	}
	if err := c.Device(2).Ping(); err != nil {
		t.Fatalf("re-added device: %v", err)
	}
}

// TestServeCommandsDuringTicks runs protocol traffic concurrently with
// fleet ticking: queries must interleave with stepping (bounded only
// by the addressed device's own batch), never error, and never stall
// the run. emulator.Config is unaffected because status queries do not
// mutate device state.
func TestServeCommandsDuringTicks(t *testing.T) {
	f, c := serveFleet(t, 4, 1200, 1, 2, 3, 4, 5, 6, 7, 8)
	stop := make(chan struct{})
	done := make(chan struct{})
	var qerr error
	var queries int
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := uint16(1 + i%8)
			if _, err := c.Device(id).QueryBatteryStatus(); err != nil {
				qerr = err
				return
			}
			queries++
		}
	}()
	f.RunToCompletion(64)
	close(stop)
	<-done
	if qerr != nil {
		t.Fatalf("query during ticking: %v", qerr)
	}
	if queries == 0 {
		t.Fatal("no queries completed during the run")
	}
	for id := uint16(1); id <= 8; id++ {
		res, err := f.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != 1200 {
			t.Fatalf("device %d ran %d steps under live queries, want 1200", id, res.Steps)
		}
	}
}
