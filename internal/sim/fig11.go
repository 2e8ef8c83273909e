package sim

import (
	"context"
	"fmt"

	"sdb/internal/battery"
	"sdb/internal/circuit"
	"sdb/internal/core"
	"sdb/internal/firmware"
)

// The Section 5.1 charging study compares three ways to meet an
// 8000 mAh capacity budget: all high energy-density cells, all
// fast-charging cells, and the SDB 50/50 mix.
var fig11Configs = []struct {
	Name  string
	Cells []string
}{
	{"traditional (0% fast)", []string{"EnergyMax-4000", "EnergyMax-4000"}},
	{"SDB (50% fast)", []string{"QuickCharge-4000", "EnergyMax-4000"}},
	{"all fast (100% fast)", []string{"QuickCharge-4000", "QuickCharge-4000"}},
}

// fig11Pack builds one configuration's pack at the given state of
// charge. Cells sharing a model name get -a/-b suffixes.
func fig11Pack(cells []string, soc float64) (*battery.Pack, error) {
	suffix := []string{"-a", "-b", "-c", "-d"}
	built := make([]*battery.Cell, 0, len(cells))
	for i, name := range cells {
		p := battery.MustByName(name)
		p.Name += suffix[i%len(suffix)]
		c, err := battery.New(p)
		if err != nil {
			return nil, err
		}
		c.SetSoC(soc)
		built = append(built, c)
	}
	return battery.NewPack(built...)
}

// fig11Controller wires a controller with tablet-scale charger
// channels (the default 2.5 A full scale is phone-sized) and a boost
// profile that lets fast-charge cells use their full 3C rating.
func fig11Controller(pack *battery.Pack) (*firmware.Controller, error) {
	cfg := firmware.DefaultConfig(pack)
	cfg.Charger.MaxCurrentA = 15
	cfg.Charger.DACSteps = 4096
	cfg.Profiles = append(cfg.Profiles,
		circuit.ChargeProfile{Name: "boost", CRate: 3.0, TrickleCRate: 0.3, ThresholdSoC: 0.8})
	return firmware.NewController(cfg)
}

// Figure11a reproduces Figure 11(a): pack energy density versus the
// share of fast-charging capacity.
func Figure11a() (*Table, error) {
	t := &Table{
		ID:      "figure-11a",
		Title:   "Energy density vs. battery configuration (paper Figure 11(a))",
		Columns: []string{"config", "energy density Wh/l"},
		Notes:   "density falls as the fast-charging share grows (fast cells swell under high charge currents)",
	}
	for _, cfg := range fig11Configs {
		var energy, volume float64
		for _, name := range cfg.Cells {
			p := battery.MustByName(name)
			swell := p.Chem == battery.ChemFastCharge
			e := p.EnergyWh()
			d := p.VolumetricDensityWhPerL(swell)
			energy += e
			volume += e / d
		}
		t.AddRowf(cfg.Name, energy/volume)
	}
	return t, nil
}

// Figure11b reproduces Figure 11(b): wall-clock charging time to reach
// each capacity target, per configuration, charging as fast as the
// chemistry allows (charging directive = 1).
func Figure11b() (*Table, error) { return figure11b(context.Background()) }

// figure11b charges the three pack configurations in parallel; every
// configuration's sweep owns its pack, controller, and runtime.
func figure11b(ctx context.Context) (*Table, error) {
	targets := []float64{0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85}
	t := &Table{
		ID:      "figure-11b",
		Title:   "Charging time vs. % charged (paper Figure 11(b))",
		Columns: []string{"% charged", "traditional min", "SDB min", "all-fast min"},
		Notes:   "the SDB mix reaches ~40% roughly 3x faster than the traditional pack while giving up <10% density",
	}
	times := make([][]float64, len(fig11Configs))
	if err := forEach(ctx, len(fig11Configs), func(ci int) error {
		out, err := fig11ChargeSweep(fig11Configs[ci].Cells, targets)
		if err != nil {
			return err
		}
		times[ci] = out
		return nil
	}); err != nil {
		return nil, err
	}
	for k, target := range targets {
		t.AddRowf(target*100, times[0][k], times[1][k], times[2][k])
	}
	return t, nil
}

// fig11ChargeSweep charges one configuration from empty and records
// the minutes needed to reach each capacity target (-1 if never).
func fig11ChargeSweep(cells []string, targets []float64) ([]float64, error) {
	const supplyW = 45 // tablet fast charger
	const dt = 5.0
	pack, err := fig11Pack(cells, 0)
	if err != nil {
		return nil, err
	}
	ctrl, err := fig11Controller(pack)
	if err != nil {
		return nil, err
	}
	// The OS selects the boost profile for fast-charging cells —
	// charging as quickly as possible per the scenario.
	for i := 0; i < pack.N(); i++ {
		if pack.Cell(i).Params().Chem == battery.ChemFastCharge {
			if err := ctrl.SetChargeProfile(i, "boost"); err != nil {
				return nil, err
			}
		}
	}
	rt, err := core.NewRuntime(ctrl, core.Options{ChargingDirective: 1})
	if err != nil {
		return nil, err
	}
	times := make([]float64, len(targets))
	for i := range times {
		times[i] = -1
	}
	totalCap := 0.0
	for i := 0; i < pack.N(); i++ {
		totalCap += pack.Cell(i).Capacity()
	}
	for step := 0; step < int(4*3600/dt); step++ {
		tS := float64(step) * dt
		if step%12 == 0 {
			if _, err := rt.Update(0, supplyW); err != nil {
				return nil, err
			}
		}
		if _, err := ctrl.Step(0, supplyW, dt); err != nil {
			return nil, err
		}
		var charged float64
		for i := 0; i < pack.N(); i++ {
			charged += pack.Cell(i).SoC() * pack.Cell(i).Capacity()
		}
		frac := charged / totalCap
		for k, target := range targets {
			if times[k] < 0 && frac >= target {
				times[k] = (tS + dt) / 60 // minutes
			}
		}
		if frac >= targets[len(targets)-1] {
			break
		}
	}
	return times, nil
}

// DefaultFigure11cCycles is the endurance length of Figure 11(c).
const DefaultFigure11cCycles = 1000

// Figure11c reproduces Figure 11(c): capacity retention ("longevity")
// after N cycles for the three configurations, each charged the way
// its owner would: fast cells fast, high-density cells at their
// standard rate.
func Figure11c(cycles int) (*Table, error) {
	return figure11c(context.Background(), cycles)
}

// figure11c flattens the endurance runs — every cell of every
// configuration cycles independently — and fans them all out.
func figure11c(ctx context.Context, cycles int) (*Table, error) {
	t := &Table{
		ID:      "figure-11c",
		Title:   fmt.Sprintf("Longevity after %d cycles (paper Figure 11(c))", cycles),
		Columns: []string{"config", "retention %"},
		Notes:   "paper: ~90% for no-fast, ~78% for all-fast, SDB in between",
	}
	// Per-cell charge C rates: how each chemistry is charged in its
	// configuration.
	rateFor := func(chem battery.Chemistry) float64 {
		if chem == battery.ChemFastCharge {
			return 2.5 // routine fast charging
		}
		return 0.5 // standard charging
	}
	type job struct{ cfg, cell int }
	var jobs []job
	for ci, cfg := range fig11Configs {
		for k := range cfg.Cells {
			jobs = append(jobs, job{ci, k})
		}
	}
	capNow := make([]float64, len(jobs))
	capDesign := make([]float64, len(jobs))
	if err := forEach(ctx, len(jobs), func(j int) error {
		name := fig11Configs[jobs[j].cfg].Cells[jobs[j].cell]
		cell := battery.MustNew(battery.MustByName(name))
		chargeA := rateFor(cell.Params().Chem) * cell.Capacity() / 3600
		disA := cell.Capacity() / 3600 // 1C
		var steps int64
		for k := 0; k < cycles; k++ {
			for !cell.Empty() {
				steps++
				cell.StepCurrent(disA, 60)
			}
			for !cell.Full() {
				steps++
				cell.StepCurrent(-chargeA, 60)
			}
		}
		battery.AddSteps(steps)
		capNow[j] = cell.Capacity()
		capDesign[j] = cell.DesignCapacity()
		return nil
	}); err != nil {
		return nil, err
	}
	for ci, cfg := range fig11Configs {
		var now, design float64
		for j, jb := range jobs {
			if jb.cfg == ci {
				now += capNow[j]
				design += capDesign[j]
			}
		}
		t.AddRowf(cfg.Name, now/design*100)
	}
	return t, nil
}
