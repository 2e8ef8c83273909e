package sim

import (
	"context"
	"fmt"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/firmware"
	"sdb/internal/workload"
)

// fig14Pack builds the 2-in-1: two equal traditional Li-ion cells,
// index 0 internal (tablet), index 1 external (keyboard base).
func fig14Pack() (*battery.Pack, error) {
	internal := battery.MustByName("Slim-5000")
	internal.Name = "internal-5000"
	external := battery.MustByName("Slim-5000")
	external.Name = "keyboard-5000"
	a, err := battery.New(internal)
	if err != nil {
		return nil, err
	}
	b, err := battery.New(external)
	if err != nil {
		return nil, err
	}
	return battery.NewPack(a, b)
}

func fig14Controller() (*firmware.Controller, error) {
	pack, err := fig14Pack()
	if err != nil {
		return nil, err
	}
	cfg := firmware.DefaultConfig(pack)
	cfg.Charger.MaxCurrentA = 10 // tablet-scale channels
	return firmware.NewController(cfg)
}

// runFig14SDB measures battery life (hours to brownout) drawing from
// both cells simultaneously under the RBL policy.
func runFig14SDB(w workload.TwoInOneWorkload) (float64, error) {
	ctrl, err := fig14Controller()
	if err != nil {
		return 0, err
	}
	rt, err := core.NewRuntime(ctrl, core.Options{DischargePolicy: core.RBLDischarge{DerivativeAware: true}})
	if err != nil {
		return 0, err
	}
	tr := w.Trace(14*3600, 2)
	var nextPolicy float64
	for k := 0; k < tr.Len(); k++ {
		tS := float64(k) * tr.DT
		loadW, _ := tr.At(tS)
		if tS >= nextPolicy {
			if _, err := rt.Update(loadW, 0); err != nil {
				return 0, err
			}
			nextPolicy = tS + 60
		}
		rep, err := ctrl.Step(loadW, 0, tr.DT)
		if err != nil {
			return 0, err
		}
		if rep.Faults&firmware.FaultBrownout != 0 {
			return tS / 3600, nil
		}
	}
	return tr.Duration() / 3600, nil
}

// runFig14ChargeThrough measures battery life under the shipping
// 2-in-1 design: the system runs from the internal battery only, and
// the keyboard battery exists solely to recharge the internal one
// through the (double-conversion) charge path.
func runFig14ChargeThrough(w workload.TwoInOneWorkload) (float64, error) {
	ctrl, err := fig14Controller()
	if err != nil {
		return 0, err
	}
	if err := ctrl.Discharge([]float64{1, 0}); err != nil {
		return 0, err
	}
	tr := w.Trace(14*3600, 2)
	pack := ctrl.Pack()
	for k := 0; k < tr.Len(); k++ {
		tS := float64(k) * tr.DT
		loadW, _ := tr.At(tS)
		// The base tops up the internal battery whenever it dips below
		// full, as shipping firmware does.
		if !ctrl.TransferActive() && !pack.Cell(1).Empty() && pack.Cell(0).SoC() < 0.95 {
			xferW := w.MeanW * 1.5
			if err := ctrl.ChargeOneFromAnother(1, 0, xferW, 600); err != nil {
				return 0, err
			}
		}
		rep, err := ctrl.Step(loadW, 0, tr.DT)
		if err != nil {
			return 0, err
		}
		if rep.Faults&firmware.FaultBrownout != 0 {
			return tS / 3600, nil
		}
	}
	return tr.Duration() / 3600, nil
}

// Fig14Row is one workload's outcome.
type Fig14Row struct {
	Workload       string
	SDBHours       float64
	BaselineHours  float64
	ImprovementPct float64
}

// RunFig14 evaluates every Figure 14 workload.
func RunFig14() ([]Fig14Row, error) { return runFig14(context.Background()) }

// runFig14 fans out every (workload, design) emulation — eight
// workloads, SDB and charge-through each — as an independent job.
func runFig14(ctx context.Context) ([]Fig14Row, error) {
	workloads := workload.TwoInOneWorkloads()
	sdbHours := make([]float64, len(workloads))
	baseHours := make([]float64, len(workloads))
	if err := forEach(ctx, 2*len(workloads), func(j int) error {
		w := workloads[j/2]
		if j%2 == 0 {
			h, err := runFig14SDB(w)
			if err != nil {
				return fmt.Errorf("sim: fig14 sdb %s: %w", w.Name, err)
			}
			sdbHours[j/2] = h
			return nil
		}
		h, err := runFig14ChargeThrough(w)
		if err != nil {
			return fmt.Errorf("sim: fig14 baseline %s: %w", w.Name, err)
		}
		baseHours[j/2] = h
		return nil
	}); err != nil {
		return nil, err
	}
	rows := make([]Fig14Row, 0, len(workloads))
	for i, w := range workloads {
		rows = append(rows, Fig14Row{
			Workload:       w.Name,
			SDBHours:       sdbHours[i],
			BaselineHours:  baseHours[i],
			ImprovementPct: (sdbHours[i]/baseHours[i] - 1) * 100,
		})
	}
	return rows, nil
}

// figure14 reproduces Figure 14: battery-life improvement from
// drawing power simultaneously from the internal and external
// batteries instead of charging one from the other.
func figure14(ctx context.Context) (*Table, error) {
	rows, err := runFig14(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "figure-14",
		Title:   "2-in-1 battery life: simultaneous draw vs. charge-through (paper Figure 14)",
		Columns: []string{"workload", "SDB hours", "baseline hours", "improvement %"},
		Notes:   "paper reports up to 22% more battery life from simultaneous draw",
	}
	for _, r := range rows {
		t.AddRowf(r.Workload, r.SDBHours, r.BaselineHours, r.ImprovementPct)
	}
	return t, nil
}
