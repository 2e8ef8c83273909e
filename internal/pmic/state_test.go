package pmic_test

import (
	"reflect"
	"sdb/internal/firmware"
	"strings"
	"testing"
)

// richController steps a controller into a non-trivial state: skewed
// ratios, a non-default profile, an in-flight transfer, and some
// simulated time — so the export carries every field with a
// non-zero value.
func richController(t *testing.T) *firmware.Controller {
	t.Helper()
	c := newTestController(t, 0.8)
	if err := c.Discharge([]float64{0.7, 0.3}); err != nil {
		t.Fatal(err)
	}
	if err := c.Charge([]float64{0.4, 0.6}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetChargeProfile(1, "fast"); err != nil {
		t.Fatal(err)
	}
	if err := c.ChargeOneFromAnother(0, 1, 1.5, 600); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Step(2.0, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestControllerStateRoundTrip: export a mid-run controller, import
// into a fresh one, and both must step identically from there — the
// re-export after import matches, and stepping both produces equal
// state again.
func TestControllerStateRoundTrip(t *testing.T) {
	orig := richController(t)
	snap := orig.ExportState()
	if snap.Transfer == nil {
		t.Fatal("in-flight transfer missing from export")
	}
	if snap.ProfileSel[1] != "fast" {
		t.Fatalf("profile selection %v, want fast on cell 1", snap.ProfileSel)
	}

	fresh := newTestController(t, 0.5) // different initial SoC: import must overwrite it
	if err := fresh.ImportState(snap); err != nil {
		t.Fatal(err)
	}
	if got := fresh.ExportState(); !reflect.DeepEqual(got, snap) {
		t.Fatal("import then export changed the state")
	}
	// Both controllers continue identically.
	for i := 0; i < 100; i++ {
		if _, err := orig.Step(1.8, 0.5, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Step(1.8, 0.5, 1); err != nil {
			t.Fatal(err)
		}
	}
	a, b := orig.ExportState(), fresh.ExportState()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("restored controller diverged from the original")
	}
}

// TestControllerImportRejectsMismatches: structural mismatches and
// dangling references must be rejected before any state is touched.
func TestControllerImportRejectsMismatches(t *testing.T) {
	good := richController(t).ExportState()
	cases := []struct {
		name     string
		mutate   func(st *firmware.ControllerState)
		contains string
	}{
		{"cells length", func(st *firmware.ControllerState) { st.Cells = st.Cells[:1] }, "cells"},
		{"gauges length", func(st *firmware.ControllerState) { st.Gauges = st.Gauges[:1] }, "gauges"},
		{"discharge ratios length", func(st *firmware.ControllerState) { st.DischargeRatios = nil }, "discharge ratios"},
		{"charge ratios length", func(st *firmware.ControllerState) { st.ChargeRatios = nil }, "charge ratios"},
		{"profile selections length", func(st *firmware.ControllerState) { st.ProfileSel = st.ProfileSel[:1] }, "profile selections"},
		{"open flags length", func(st *firmware.ControllerState) { st.Open = st.Open[:1] }, "open flags"},
		{"unknown profile", func(st *firmware.ControllerState) {
			st.ProfileSel = []string{"standard", "warp-speed"}
		}, "not in profile table"},
		{"transfer out of range", func(st *firmware.ControllerState) {
			st.Transfer = &firmware.TransferState{From: 0, To: 9, PowerW: 1, RemainingS: 10}
		}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := good
			tc.mutate(&st)
			err := newTestController(t, 0.8).ImportState(st)
			if err == nil || !strings.Contains(err.Error(), tc.contains) {
				t.Fatalf("ImportState = %v, want error containing %q", err, tc.contains)
			}
		})
	}
}
