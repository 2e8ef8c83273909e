package sim

import (
	"context"
	"fmt"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/workload"
)

// Fig13Result carries the smartwatch-day outcome for one policy, used
// by both the table driver and the shape tests.
type Fig13Result struct {
	Policy string
	// HourlyLoadJ and HourlyLossJ are 24 buckets of consumed energy
	// and internal losses.
	HourlyLoadJ []float64
	HourlyLossJ []float64
	// LiIonDrainedH / BendableDrainedH are the hours at which each
	// cell emptied (negative if never).
	LiIonDrainedH    float64
	BendableDrainedH float64
	// DeviceDiedH is when the pack browned out (negative if it made it
	// through the day).
	DeviceDiedH float64
	TotalLossJ  float64
}

// fig13Trace is the Figure 13 watch day, built so the daily energy
// slightly exceeds the 2 x 200 mAh budget (the device dies in the
// evening, as in the paper):
//
//	00-06  sleep            25 mW idle floor
//	06-09  morning commute  150 mW (navigation, news, notifications)
//	09-10.2 GPS-tracked run 580 mW (high power: near the bendable
//	        cell's capability, where its solid separator is least
//	        efficient)
//	10.2-23 message checks  25 mW average
//	23-24  sleep            22 mW
func fig13Trace(includeRun bool) *workload.Trace {
	const dt = 10
	seg := func(name string, w, hours float64) *workload.Trace {
		return workload.Constant(name, w, hours*3600, dt)
	}
	runW := 0.59
	if !includeRun {
		runW = 0.025
	}
	parts := []*workload.Trace{
		seg("sleep", 0.025, 6),
		seg("morning", 0.15, 3),
		seg("run", runW, 1.2),
		seg("day", 0.025, 12.8),
		seg("night", 0.022, 1),
	}
	tr := parts[0]
	for _, p := range parts[1:] {
		var err error
		if tr, err = tr.Concat(p); err != nil {
			panic(err) // segments share dt by construction
		}
	}
	tr.Name = "fig13-watch-day"
	return tr
}

// RunFig13 simulates the day under the given discharge policy.
func RunFig13(policyName string, policy core.DischargePolicy, includeRun bool) (*Fig13Result, error) {
	liion := battery.MustByName("Watch-200")
	bend := battery.MustByName("BendStrap-200")
	st, err := emulator.NewStack(1.0, core.Options{DischargePolicy: policy}, liion, bend)
	if err != nil {
		return nil, err
	}
	tr := fig13Trace(includeRun)
	res, err := emulate(emulator.Config{
		Controller:      st.Controller,
		Runtime:         st.Runtime,
		Trace:           tr,
		PolicyEveryS:    300,
		StopWhenDrained: true,
	})
	if err != nil {
		return nil, err
	}
	out := &Fig13Result{
		Policy:      policyName,
		HourlyLoadJ: make([]float64, 24),
		HourlyLossJ: make([]float64, 24),
	}
	s := res.Series
	for i, tS := range s.T {
		h := int(tS / 3600)
		if h >= 24 {
			break
		}
		out.HourlyLoadJ[h] += s.LoadW[i] * tr.DT
		out.HourlyLossJ[h] += (s.CircuitLossW[i] + s.BatteryLossW[i]) * tr.DT
	}
	out.TotalLossJ = res.CircuitLossJ + res.BatteryLossJ
	hour := func(sec float64) float64 {
		if sec < 0 {
			return -1
		}
		return sec / 3600
	}
	out.LiIonDrainedH = hour(res.CellDrainedAtS[0])
	out.BendableDrainedH = hour(res.CellDrainedAtS[1])
	out.DeviceDiedH = hour(res.DrainedAtS)
	return out, nil
}

// figure13 reproduces Figure 13: the hourly loss profile and depletion
// times for the two extreme parameter settings — Policy 1 minimizes
// instantaneous losses (RBL), Policy 2 preserves the efficient Li-ion
// cell for the anticipated run (Reserve).
//
// It emulates the two policies' days in parallel.
func figure13(ctx context.Context) (*Table, error) {
	days := []struct {
		name   string
		policy core.DischargePolicy
	}{
		{"policy1-rbl", core.RBLDischarge{DerivativeAware: true}},
		{"policy2-reserve", core.Reserve{ReserveIdx: 0, HighPowerW: 0.4}},
	}
	results := make([]*Fig13Result, len(days))
	if err := forEach(ctx, len(days), func(i int) error {
		res, err := RunFig13(days[i].name, days[i].policy, true)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	}); err != nil {
		return nil, err
	}
	p1, p2 := results[0], results[1]
	t := &Table{
		ID:      "figure-13",
		Title:   "Smartwatch day: losses and depletion under two policies (paper Figure 13)",
		Columns: []string{"hour", "load J", "policy1 loss J", "policy2 loss J"},
		Notes: fmt.Sprintf(
			"policy1: Li-ion dead %.1fh, bendable dead %.1fh, device dead %.1fh | policy2: device dead %.1fh (run starts hour 9)",
			p1.LiIonDrainedH, p1.BendableDrainedH, p1.DeviceDiedH, p2.DeviceDiedH),
	}
	for h := 0; h < 24; h++ {
		t.AddRowf(h, p1.HourlyLoadJ[h], p1.HourlyLossJ[h], p2.HourlyLossJ[h])
	}
	return t, nil
}
