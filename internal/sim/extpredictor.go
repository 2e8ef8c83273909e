package sim

import (
	"context"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/predictor"
)

// ExtPredictor is the extension experiment for the paper's Section 8
// direction (tying personal assistants to SDB): instead of hardcoding
// "preserve the Li-ion for the 9 am run" (Figure 13's policy 2), the
// OS learns the user's daily pattern from past traces and configures
// the reserve policy automatically. The learned policy should land
// within reach of the hand-configured one and clearly beat the
// schedule-blind loss minimizer.
func ExtPredictor() (*Table, error) { return extPredictor(context.Background()) }

// extPredictor trains the profile, then emulates the three policies'
// days in parallel.
func extPredictor(ctx context.Context) (*Table, error) {
	// Train on a week of observed days.
	prof, err := predictor.New(0.3, 0.3)
	if err != nil {
		return nil, err
	}
	day := fig13Trace(true)
	for i := 0; i < 7; i++ {
		if err := prof.ObserveDay(day); err != nil {
			return nil, err
		}
	}

	runs := []func() (*Fig13Result, error){
		func() (*Fig13Result, error) {
			return RunFig13("rbl-blind", core.RBLDischarge{DerivativeAware: true}, true)
		},
		func() (*Fig13Result, error) {
			return RunFig13("reserve-hand", core.Reserve{ReserveIdx: 0, HighPowerW: 0.4}, true)
		},
		func() (*Fig13Result, error) { return runLearnedDay(prof) },
	}
	results := make([]*Fig13Result, len(runs))
	if err := forEach(ctx, len(runs), func(i int) error {
		res, err := runs[i]()
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	}); err != nil {
		return nil, err
	}
	blind, hand, learned := results[0], results[1], results[2]

	t := &Table{
		ID:      "ext-predictor",
		Title:   "Learned schedule-aware policy vs. hand-configured and schedule-blind (extension)",
		Columns: []string{"policy", "device dead h", "total loss J"},
		Notes:   "the learned policy should approach the hand-configured reserve and beat the blind loss minimizer",
	}
	t.AddRowf("rbl (schedule-blind)", blind.DeviceDiedH, blind.TotalLossJ)
	t.AddRowf("reserve (hand-configured)", hand.DeviceDiedH, hand.TotalLossJ)
	t.AddRowf("reserve (learned)", learned.DeviceDiedH, learned.TotalLossJ)
	return t, nil
}

// runLearnedDay replays the Figure 13 day with policies driven by the
// trained profile at every OS tick.
func runLearnedDay(prof *predictor.Profile) (*Fig13Result, error) {
	st, err := emulator.NewStack(1.0,
		core.Options{DischargePolicy: core.RBLDischarge{DerivativeAware: true}},
		battery.MustByName("Watch-200"),
		battery.MustByName("BendStrap-200"))
	if err != nil {
		return nil, err
	}
	tr := fig13Trace(true)

	directiveFn := func(tS float64, rt *core.Runtime) {
		hour := tS / 3600
		m, err := rt.Metrics()
		if err != nil {
			return
		}
		adv := prof.Advise(hour, m.MeanSoC, 4, 0.5)
		if adv.ReserveForWindow {
			// Reserve the most capable cell (the efficient Li-ion) for
			// the predicted window.
			_ = rt.SetDischargePolicy(core.Reserve{ReserveIdx: 0, HighPowerW: adv.HighPowerW})
		} else {
			_ = rt.SetDischargePolicy(core.RBLDischarge{DerivativeAware: true})
		}
		rt.SetDirectives(adv.ChargingDirective, adv.DischargingDirective)
	}

	res, err := emulate(emulator.Config{
		Controller:      st.Controller,
		Runtime:         st.Runtime,
		Trace:           tr,
		PolicyEveryS:    300,
		StopWhenDrained: true,
		DirectiveFn:     directiveFn,
	})
	if err != nil {
		return nil, err
	}
	out := &Fig13Result{Policy: "learned"}
	out.TotalLossJ = res.CircuitLossJ + res.BatteryLossJ
	if res.DrainedAtS >= 0 {
		out.DeviceDiedH = res.DrainedAtS / 3600
	} else {
		out.DeviceDiedH = -1
	}
	if res.CellDrainedAtS[0] >= 0 {
		out.LiIonDrainedH = res.CellDrainedAtS[0] / 3600
	} else {
		out.LiIonDrainedH = -1
	}
	return out, nil
}
