package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/fleet"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/pmic"
	"sdb/internal/workload"
)

// push builds a synthetic metrics push for model tests.
func push(dev uint16, kv ...any) pmic.PushDevice {
	pd := pmic.PushDevice{Device: dev}
	for i := 0; i < len(kv); i += 2 {
		pd.Values = append(pd.Values, pmic.PushSample{Name: kv[i].(string), Value: kv[i+1].(float64)})
	}
	return pd
}

func TestModelMergesDeltaPushes(t *testing.T) {
	m := newModel()
	m.apply(&pmic.Push{Kind: pmic.PushMetrics, Devices: []pmic.PushDevice{
		push(pmic.PushFleetDevice, "fleet_devices", 2.0, "fleet_steps_per_sec", 1000.0),
		push(1, "soc", 0.5, "health", 0.0, "steps", 64.0),
		push(2, "soc", 0.9, "health", 1.0, "steps", 64.0),
	}})
	// Second push only carries what changed; prior values must persist.
	m.apply(&pmic.Push{Kind: pmic.PushMetrics, Dropped: 3, Devices: []pmic.PushDevice{
		push(1, "soc", 0.4),
	}})
	m.apply(&pmic.Push{Kind: pmic.PushAlert, Alerts: []pmic.AlertTransition{
		{Device: 1, TimeS: 128, Rule: "lowsoc", From: ts.StateInactive, To: ts.StateFiring, Value: 0.4, Threshold: 0.62},
	}})

	if m.devs[1]["soc"] != 0.4 || m.devs[1]["steps"] != 64 {
		t.Fatalf("delta merge broken: %+v", m.devs[1])
	}
	var sb strings.Builder
	m.render(&sb, "test:0", "soc", 10, 8)
	out := sb.String()
	for _, want := range []string{
		"fleet: 2 devices",
		"1000 steps/s",
		"healthy 1 · degraded 1",
		"lowsoc",
		"inactive->firing",
		"server dropped 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// soc sort ascending: device 1 (0.4) before device 2 (0.9).
	if i1, i2 := strings.Index(out, "\n     1 "), strings.Index(out, "\n     2 "); i1 < 0 || i2 < 0 || i1 > i2 {
		t.Fatalf("soc sort wrong (idx %d vs %d):\n%s", i1, i2, out)
	}
}

func TestModelSortKeys(t *testing.T) {
	m := newModel()
	m.apply(&pmic.Push{Kind: pmic.PushMetrics, Devices: []pmic.PushDevice{
		push(1, "soc", 0.2, "health", 0.0, "temp_c", 25.0, "energy_j", 10.0, "steps", 5.0),
		push(2, "soc", 0.8, "health", 3.0, "temp_c", 45.0, "energy_j", 90.0, "steps", 50.0),
	}})
	// key -> id expected on the first table row ("most interesting").
	first := map[string]string{"soc": "1", "health": "2", "temp": "2", "energy": "1", "steps": "2"}
	for key, dev := range first {
		var sb strings.Builder
		m.render(&sb, "t", key, 1, 0)
		out := sb.String()
		rows := strings.Split(out, "DEV")
		if len(rows) != 2 || !strings.Contains(strings.Split(rows[1], "\n")[1], " "+dev+" ") {
			t.Fatalf("-sort %s: expected device %s first:\n%s", key, dev, out)
		}
	}
}

// TestDashboardAgainstLiveFleet drives the model end-to-end: a real
// fleet served over TCP, a real subscription, and the render path —
// everything sdbtop does except the ANSI screen loop.
func TestDashboardAgainstLiveFleet(t *testing.T) {
	rules, err := ts.ParseRules("alert busy steps >= 32")
	if err != nil {
		t.Fatal(err)
	}
	f := fleet.New(fleet.Config{Shards: 2, Obs: obs.NewRegistry(), Rules: rules})
	defer f.Close()
	for id := uint16(1); id <= 5; id++ {
		st, err := emulator.NewStack(0.3+0.1*float64(id), core.Options{},
			battery.MustByName("QuickCharge-2000"), battery.MustByName("Standard-2000"))
		if err != nil {
			t.Fatal(err)
		}
		cfg := emulator.Config{
			Controller:   st.Controller,
			Trace:        workload.Constant(fmt.Sprintf("dev-%d", id), 1.5, 600, 1),
			PolicyEveryS: 60,
			Runtime:      st.Runtime,
		}
		if err := f.Add(id, cfg); err != nil {
			t.Fatal(err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _ = f.Serve(conn); _ = conn.Close() }()
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := pmic.NewClient(conn)
	c.Timeout = 5 * time.Second
	if _, err := c.Subscribe(pmic.SubscriptionSpec{
		Fleet: true, Signals: pmic.SubSigMetrics | pmic.SubSigAlerts,
	}); err != nil {
		t.Fatal(err)
	}

	m := newModel()
	for i := 0; i < 4; i++ {
		f.Tick(32)
		for {
			p, err := c.ReadPush(100 * time.Millisecond)
			if errors.Is(err, os.ErrDeadlineExceeded) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			m.apply(p)
		}
	}

	var sb strings.Builder
	m.render(&sb, ln.Addr().String(), "soc", 10, 8)
	out := sb.String()
	for _, want := range []string{
		"fleet: 5 devices",
		"healthy 5",
		"busy",             // the steps rule fires on every device
		"inactive->firing", // ...immediately (no for clause)
		"alerts firing: 5", // and the fleet rollup reflects it
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("live render missing %q:\n%s", want, out)
		}
	}
	// All five devices should have rows with live soc values.
	for id := 1; id <= 5; id++ {
		if !strings.Contains(out, fmt.Sprintf("\n     %d ", id)) {
			t.Fatalf("device %d missing from top table:\n%s", id, out)
		}
	}
}
