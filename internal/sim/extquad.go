package sim

import (
	"context"
	"fmt"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/workload"
)

// extQuad exercises the paper's full Figure 3 configuration — four
// heterogeneous batteries under one controller — to show the policies
// generalize past the two-cell scenarios: a fast-charge cell, a
// high-density cell, a LiFePO4 power cell, and a standard cell share a
// bursty tablet load under three split strategies.
//
// It runs the three policies' emulations in parallel.
func extQuad(ctx context.Context) (*Table, error) {
	cells := []string{"QuickCharge-2000", "EnergyMax-4000", "PowerTool-1500", "Standard-2000"}
	policies := []core.DischargePolicy{
		core.FixedRatios{Label: "fixed-25x4", Ratios: []float64{0.25, 0.25, 0.25, 0.25}},
		core.Proportional{},
		core.RBLDischarge{DerivativeAware: true},
	}
	t := &Table{
		ID:      "ext-quad",
		Title:   "Four heterogeneous batteries under one controller (extension)",
		Columns: []string{"policy", "delivered J", "loss %", "share fast/dense/power/std"},
		Notes:   "the Figure 3 four-battery configuration: loss-aware splitting wins at N=4 too",
	}
	tr := workload.Square("tablet", 1.0, 9.0, 600, 0.35, 2*3600, 1)
	type quadResult struct {
		res   *emulator.Result
		moved [4]float64
	}
	results := make([]quadResult, len(policies))
	if err := forEach(ctx, len(policies), func(i int) error {
		params := make([]battery.Params, 0, len(cells))
		for _, n := range cells {
			params = append(params, battery.MustByName(n))
		}
		st, err := emulator.NewStack(0.9, core.Options{DischargePolicy: policies[i]}, params...)
		if err != nil {
			return err
		}
		res, err := emulate(emulator.Config{
			Controller: st.Controller, Runtime: st.Runtime, Trace: tr,
		})
		if err != nil {
			return fmt.Errorf("sim: ext-quad %s: %w", policies[i].Name(), err)
		}
		results[i].res = res
		// Report how the pack actually shared the work: fraction of
		// charge each cell contributed.
		for c := range results[i].moved {
			_, results[i].moved[c] = st.Pack.Cell(c).TotalThroughput()
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, p := range policies {
		res, moved := results[i].res, results[i].moved
		loss := res.CircuitLossJ + res.BatteryLossJ
		var total float64
		for _, m := range moved {
			total += m
		}
		shares := fmt.Sprintf("%.2f/%.2f/%.2f/%.2f",
			moved[0]/total, moved[1]/total, moved[2]/total, moved[3]/total)
		t.AddRowf(p.Name(), res.DeliveredJ, loss/(res.DeliveredJ+loss)*100, shares)
	}
	return t, nil
}
