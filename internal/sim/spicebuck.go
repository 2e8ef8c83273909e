package sim

import (
	"context"
	"fmt"
	"math"

	"sdb/internal/spice"
)

// spiceBuck validates the Section 3.2.2 charging-circuit claim the
// paper leaves "beyond the scope": a synchronous buck regulator can be
// driven in reverse so current flows from its (low-voltage) output
// back into its (high-voltage) input — the mechanism that lets SDB
// charge one battery from another with only O(N) regulators. The
// experiment sweeps the switching duty across the Vbatt/Vin balance
// point and reports the mean battery current: positive charges the
// battery (buck mode), negative discharges it into the input (reverse
// buck mode).
//
// It runs the five duties' transients in parallel.
func spiceBuck(ctx context.Context) (*Table, error) {
	const (
		vin   = 9.0
		vbatt = 3.8
	)
	t := &Table{
		ID:      "spice-buck",
		Title:   "Synchronous buck: duty cycle vs. power-flow direction (Section 3.2.2 validation)",
		Columns: []string{"duty %", "battery A", "mode"},
		Notes:   fmt.Sprintf("direction flips at duty = Vbatt/Vin = %.0f%%: below it the regulator runs in reverse buck mode", vbatt/vin*100),
	}
	duties := []float64{0.25, 0.35, 0.42, 0.50, 0.60}
	currents := make([]float64, len(duties))
	if err := forEach(ctx, len(duties), func(i int) error {
		var err error
		currents[i], err = runBuck(vin, vbatt, duties[i])
		return err
	}); err != nil {
		return nil, err
	}
	for k, duty := range duties {
		i := currents[k]
		mode := "charge (buck)"
		if i < 0 {
			mode = "discharge (reverse buck)"
		}
		t.AddRowf(duty*100, i, mode)
	}
	return t, nil
}

// runBuck simulates the synchronous buck of buck_test.go and returns
// the mean steady-state battery current (positive = charging).
func runBuck(vin, vbatt, duty float64) (float64, error) {
	c := spice.New()
	vinN := c.Node("vin")
	sw := c.Node("sw")
	lx := c.Node("lx")
	out := c.Node("out")
	bat := c.Node("bat")
	steps := []error{
		c.AddDCVoltageSource("VIN", vinN, spice.Ground, vin),
		c.AddResistor("RS", vinN, sw, 0.05),
		c.AddInductor("L1", lx, out, 10e-6, 0),
		c.AddCapacitor("C1", out, spice.Ground, 100e-6, vbatt),
		c.AddResistor("RBAT", out, bat, 0.08),
		c.AddDCVoltageSource("VBAT", bat, spice.Ground, vbatt),
	}
	const period = 10e-6
	phase := func(tm float64) float64 { return math.Mod(tm, period) / period }
	steps = append(steps,
		c.AddSwitch("SHI", sw, lx, 0.02, 1e7, func(tm float64) bool { return phase(tm) < duty }),
		c.AddSwitch("SLO", lx, spice.Ground, 0.02, 1e7, func(tm float64) bool { return phase(tm) >= duty }),
	)
	for _, err := range steps {
		if err != nil {
			return 0, err
		}
	}
	res, err := c.Transient(4e-3, 0.2e-6)
	if err != nil {
		return 0, err
	}
	iw, ok := res.BranchCurrent("VBAT")
	if !ok {
		return 0, fmt.Errorf("sim: no battery branch current")
	}
	var sum float64
	n := 0
	for k := len(iw) / 2; k < len(iw); k++ {
		sum += iw[k]
		n++
	}
	return sum / float64(n), nil
}
