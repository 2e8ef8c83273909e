package firmware

import (
	"fmt"

	"sdb/internal/battery"
	"sdb/internal/fuelgauge"
)

// Controller state export/import: the checkpoint face of the firmware.
// A ControllerState carries every register and estimator a restore
// needs to resume stepping byte-identically; hardware models (discharge
// path, charger, profile table) are configuration, rebuilt by the
// provisioner, and only the *selections* into them are carried.

// TransferState is the snapshot of an in-flight battery-to-battery
// transfer.
type TransferState struct {
	From, To   int
	PowerW     float64
	RemainingS float64
}

// ControllerState is the firmware's complete mutable state.
type ControllerState struct {
	// Cells and Gauges are indexed like the pack.
	Cells  []battery.CellState
	Gauges []fuelgauge.State

	DischargeRatios []float64
	ChargeRatios    []float64
	// ProfileSel names the selected charge profile per battery; import
	// re-resolves each name against the configured profile table.
	ProfileSel []string
	Open       []bool
	Transfer   *TransferState

	SinceCmdS     float64
	WatchdogFires int64
	SimTimeS      float64
	LastBrownout  bool
	Steps         int64
}

// ExportState snapshots the firmware's mutable state under the firmware
// mutex. Do not call it on a controller whose stepping goroutine died
// mid-segment (a quarantined fleet device): the mutex may be held
// forever.
func (c *Controller) ExportState() ControllerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.cells)
	st := ControllerState{
		Cells:           make([]battery.CellState, n),
		Gauges:          make([]fuelgauge.State, n),
		DischargeRatios: append([]float64(nil), c.dischargeRatios...),
		ChargeRatios:    append([]float64(nil), c.chargeRatios...),
		ProfileSel:      make([]string, n),
		Open:            append([]bool(nil), c.open...),
		SinceCmdS:       c.sinceCmdS,
		WatchdogFires:   c.watchdogFires,
		SimTimeS:        c.simTimeS,
		LastBrownout:    c.lastBrownout,
		Steps:           c.steps.Load(),
	}
	for i := 0; i < n; i++ {
		st.Cells[i] = c.cells[i].ExportState()
		st.Gauges[i] = c.gauges[i].ExportState()
		st.ProfileSel[i] = c.profiles[c.profileSel[i]].Name
	}
	if c.xfer != nil {
		st.Transfer = &TransferState{
			From: c.xfer.from, To: c.xfer.to,
			PowerW: c.xfer.powerW, RemainingS: c.xfer.remaining,
		}
	}
	return st
}

// ImportState overwrites the firmware's mutable state with a snapshot
// taken by ExportState on an identically configured controller (same
// pack size, same profile table). On the batch backend the
// scalar cells written here are authoritative: the next fast segment's
// BeginFast syncs them into the engine lanes.
func (c *Controller) ImportState(st ControllerState) error {
	n := len(c.cells)
	for what, l := range map[string]int{
		"cells": len(st.Cells), "gauges": len(st.Gauges),
		"discharge ratios": len(st.DischargeRatios), "charge ratios": len(st.ChargeRatios),
		"profile selections": len(st.ProfileSel), "open flags": len(st.Open),
	} {
		if l != n {
			return fmt.Errorf("firmware: import: %d %s for %d batteries", l, what, n)
		}
	}
	for _, name := range st.ProfileSel {
		if _, ok := findProfile(c.profiles, name); !ok {
			return fmt.Errorf("firmware: import: profile %q not in profile table", name)
		}
	}
	if x := st.Transfer; x != nil {
		if x.From < 0 || x.From >= n || x.To < 0 || x.To >= n {
			return fmt.Errorf("firmware: import: transfer %d->%d out of range", x.From, x.To)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < n; i++ {
		c.cells[i].ImportState(st.Cells[i])
		c.gauges[i].ImportState(st.Gauges[i])
	}
	copy(c.dischargeRatios, st.DischargeRatios)
	copy(c.chargeRatios, st.ChargeRatios)
	for i, name := range st.ProfileSel {
		c.profileSel[i], _ = findProfile(c.profiles, name)
	}
	copy(c.open, st.Open)
	c.xfer = nil
	if x := st.Transfer; x != nil {
		c.xfer = &transfer{from: x.From, to: x.To, powerW: x.PowerW, remaining: x.RemainingS}
	}
	c.sinceCmdS = st.SinceCmdS
	c.watchdogFires = st.WatchdogFires
	c.simTimeS = st.SimTimeS
	c.lastBrownout = st.LastBrownout
	c.steps.Store(st.Steps)
	return nil
}
