package sim

import (
	"context"

	"sdb/internal/battery"
)

// extThermal is the thermal extension experiment: the same
// fast-charging cell is cycled at three ambient temperatures, showing
// the two effects the thermal model adds — hot cycling ages the cell
// faster (electrolyte decomposition above the aging knee), and very
// hot cells hit thermal protection, which throttles the realized
// charge rate (longer charge times).
//
// It cycles the three ambients' cells in parallel.
func extThermal(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "ext-thermal",
		Title:   "Ambient temperature vs. fast-charge aging and throttling (extension)",
		Columns: []string{"ambient C", "peak cell C", "retention % @300", "charge min"},
		Notes:   "moderate heat ages the cell faster; extreme heat trips thermal protection, which stretches charge time but shields longevity",
	}
	ambients := []float64{25, 40, 55}
	rows := make([]thermalCase, len(ambients))
	if err := forEach(ctx, len(ambients), func(i int) error {
		var err error
		rows[i], err = runThermalCase(ambients[i], 300)
		return err
	}); err != nil {
		return nil, err
	}
	for i, ambient := range ambients {
		t.AddRowf(ambient, rows[i].peakC, rows[i].retention*100, rows[i].chargeMin)
	}
	return t, nil
}

type thermalCase struct {
	peakC     float64
	retention float64
	chargeMin float64
}

// runThermalCase cycles a QuickCharge-2000 at 2.5C charge / 1C
// discharge for n cycles at the given ambient, recording the peak cell
// temperature, final capacity retention, and the mean time of a full
// charge.
func runThermalCase(ambientC float64, cycles int) (thermalCase, error) {
	cell, err := battery.New(battery.MustByName("QuickCharge-2000"))
	if err != nil {
		return thermalCase{}, err
	}
	cell.SetAmbient(ambientC)
	var out thermalCase
	var chargeSecs float64
	var steps int64
	defer func() { battery.AddSteps(steps) }()
	const dt = 30
	for k := 0; k < cycles; k++ {
		disA := cell.Capacity() / 3600
		for !cell.Empty() {
			steps++
			cell.StepCurrent(disA, dt)
			if tc := cell.Temperature(); tc > out.peakC {
				out.peakC = tc
			}
		}
		chgA := 2.5 * cell.Capacity() / 3600
		for !cell.Full() {
			steps++
			res := cell.StepCurrent(-chgA, dt)
			chargeSecs += dt
			if tc := cell.Temperature(); tc > out.peakC {
				out.peakC = tc
			}
			if res.ChargeMoved == 0 && res.Clamped && cell.MaxChargeCurrent() == 0 {
				// Fully throttled: cool down at rest.
				steps++
				cell.StepCurrent(0, dt)
				chargeSecs += dt
			}
		}
	}
	out.retention = cell.CapacityFraction()
	out.chargeMin = chargeSecs / float64(cycles) / 60
	return out, nil
}
