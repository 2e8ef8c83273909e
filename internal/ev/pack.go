package ev

import (
	"sdb/internal/battery"
	"sdb/internal/circuit"
	"sdb/internal/core"
	"sdb/internal/firmware"
	"sdb/internal/fuelgauge"
)

// EnergyPackParams models the main traction pack: 96 CoO2 groups in
// series (~355 V nominal), 150 Ah. Like production NMC packs it
// accepts regenerative charge only slowly (0.06C here — charging a
// large, possibly cold pack hard damages it), which is exactly why the
// power buffer earns its place.
func EnergyPackParams() battery.Params {
	p := battery.Params{
		Name:                "EV-Energy-150",
		Chem:                battery.ChemHighDensity,
		CapacityAh:          150,
		OCV:                 battery.OCVCoO2().Scale(96),
		DCIR:                battery.DCIRCurve(0.060),
		ConcentrationR:      0.015,
		PlateC:              32000,
		MaxChargeC:          0.06,
		MaxDischargeC:       1.5,
		RatedCycles:         1500,
		FadePerCycle:        6e-5,
		FadeRefC:            0.06,
		FadeExponent:        2.0,
		DischargeFadeWeight: 0.01,
		ResGrowthPerCycle:   1e-4,
		VolumeL:             320,
		MassKg:              380,
		CostPerWh:           0.15,
		ThermalMassJPerK:    380000,
		ThermalResKPerW:     0.05,
		TempCoeffRPerK:      -0.008,
		AgingTempThresholdC: 45,
		AgingTempFactorPerK: 0.06,
		MaxTempC:            55,
	}
	return p
}

// PowerPackParams models the high-power buffer: an LTO/LiFePO4-class
// pack (~330 V, 40 Ah) that tolerates 4C charging — it exists to
// swallow regen bursts and to assist on climbs.
func PowerPackParams() battery.Params {
	return battery.Params{
		Name:       "EV-Power-40",
		Chem:       battery.ChemType1,
		CapacityAh: 40,
		OCV:        battery.OCVLiFePO4().Scale(100),
		// A 40 Ah pack at 330 V has far fewer parallel groups than the
		// traction pack, so its resistance is several times higher —
		// loss-minimizing policies avoid it, which is why the
		// navigator's explicit hints are needed to pre-drain it.
		DCIR:                battery.DCIRCurve(0.300),
		ConcentrationR:      0.010,
		PlateC:              24000,
		MaxChargeC:          4.0,
		MaxDischargeC:       6.0,
		RatedCycles:         6000,
		FadePerCycle:        1.5e-5,
		FadeRefC:            2.0,
		FadeExponent:        1.8,
		DischargeFadeWeight: 0.005,
		ResGrowthPerCycle:   5e-5,
		VolumeL:             90,
		MassKg:              120,
		CostPerWh:           0.40,
		ThermalMassJPerK:    120000,
		ThermalResKPerW:     0.10,
		TempCoeffRPerK:      -0.008,
		AgingTempThresholdC: 45,
		AgingTempFactorPerK: 0.06,
		MaxTempC:            55,
	}
}

// Stack bundles the EV's SDB stack. Index 0 is the energy pack,
// index 1 the power buffer.
type Stack struct {
	Pack       *battery.Pack
	Controller *firmware.Controller
	Runtime    *core.Runtime
}

// EnergyIdx and PowerIdx name the pack positions.
const (
	EnergyIdx = 0
	PowerIdx  = 1
)

// NewStack wires the two packs under an EV-scale controller (500 A
// charger channels, a regen profile that lets the buffer use its full
// charge rating) and a runtime with the given options.
func NewStack(initialSoC float64, opts core.Options) (*Stack, error) {
	mk := func(p battery.Params) (*battery.Cell, error) {
		c, err := battery.New(p)
		if err != nil {
			return nil, err
		}
		c.SetSoC(initialSoC)
		return c, nil
	}
	energy, err := mk(EnergyPackParams())
	if err != nil {
		return nil, err
	}
	power, err := mk(PowerPackParams())
	if err != nil {
		return nil, err
	}
	pack, err := battery.NewPack(energy, power)
	if err != nil {
		return nil, err
	}
	cfg := firmware.DefaultConfig(pack)
	// The default power-path loss model is calibrated for mobile
	// wattages; an EV inverter-scale path has a higher floor but a
	// per-watt slope four orders of magnitude smaller.
	cfg.DischargePath = circuit.DischargeConfig{
		Resolution:        8192,
		BaseLossFrac:      0.02,
		SlopeLossFracPerW: 1e-6, // +1.4% at a 14 kW cruise
		ToleranceFrac:     0.002,
	}
	cfg.Charger.MaxCurrentA = 500
	cfg.Charger.DACSteps = 8192
	// Per-pack profiles with pack-scale CV ceilings: the mobile
	// defaults carry a 4.2 V single-cell CV that would (correctly)
	// refuse to charge a 350 V pack.
	cfg.Profiles = append(cfg.Profiles,
		circuit.ChargeProfile{Name: "regen", CRate: 4.0, TrickleCRate: 0.5, ThresholdSoC: 0.97, CVVoltage: 4.20 * 100},
		circuit.ChargeProfile{Name: "traction", CRate: 0.06, TrickleCRate: 0.03, ThresholdSoC: 0.9, CVVoltage: 4.20 * 96})
	cfg.Gauge = fuelgauge.DefaultConfig()
	ctrl, err := firmware.NewController(cfg)
	if err != nil {
		return nil, err
	}
	if err := ctrl.SetChargeProfile(PowerIdx, "regen"); err != nil {
		return nil, err
	}
	if err := ctrl.SetChargeProfile(EnergyIdx, "traction"); err != nil {
		return nil, err
	}
	rt, err := core.NewRuntime(ctrl, opts)
	if err != nil {
		return nil, err
	}
	return &Stack{Pack: pack, Controller: ctrl, Runtime: rt}, nil
}
