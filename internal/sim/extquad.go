package sim

import (
	"fmt"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/workload"
)

// ExtQuad exercises the paper's full Figure 3 configuration — four
// heterogeneous batteries under one controller — to show the policies
// generalize past the two-cell scenarios: a fast-charge cell, a
// high-density cell, a LiFePO4 power cell, and a standard cell share a
// bursty tablet load under three split strategies.
func ExtQuad() (*Table, error) {
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
	for _, p := range policies {
		params := make([]battery.Params, 0, len(cells))
		for _, n := range cells {
			params = append(params, battery.MustByName(n))
		}
		st, err := emulator.NewStack(0.9, core.Options{DischargePolicy: p}, params...)
		if err != nil {
			return nil, err
		}
		res, err := emulate(emulator.Config{
			Controller: st.Controller, Runtime: st.Runtime, Trace: tr,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: ext-quad %s: %w", p.Name(), err)
		}
		loss := res.CircuitLossJ + res.BatteryLossJ
		// Report how the pack actually shared the work: fraction of
		// charge each cell contributed.
		var moved [4]float64
		var total float64
		for i := 0; i < 4; i++ {
			_, out := st.Pack.Cell(i).TotalThroughput()
			moved[i] = out
			total += out
		}
		shares := fmt.Sprintf("%.2f/%.2f/%.2f/%.2f",
			moved[0]/total, moved[1]/total, moved[2]/total, moved[3]/total)
		t.AddRowf(p.Name(), res.DeliveredJ, loss/(res.DeliveredJ+loss)*100, shares)
	}
	return t, nil
}
