package workload

import (
	"math"
	"math/rand"
)

// Constant returns a flat trace: load watts for the duration.
func Constant(name string, loadW, durationS, dt float64) *Trace {
	n := samples(durationS, dt)
	tr := &Trace{Name: name, DT: dt, Load: make([]float64, n)}
	for i := range tr.Load {
		tr.Load[i] = loadW
	}
	return tr
}

// Square returns a square-wave trace alternating between lowW and
// highW with the given period and high-phase duty cycle.
func Square(name string, lowW, highW, periodS, duty, durationS, dt float64) *Trace {
	n := samples(durationS, dt)
	tr := &Trace{Name: name, DT: dt, Load: make([]float64, n)}
	for i := range tr.Load {
		phase := math.Mod(float64(i)*dt, periodS) / periodS
		if phase < duty {
			tr.Load[i] = highW
		} else {
			tr.Load[i] = lowW
		}
	}
	return tr
}

// SmartwatchDayConfig parameterizes the Section 5.2 watch day.
type SmartwatchDayConfig struct {
	// Device supplies component powers; zero value uses Watch().
	Device Device
	// RunStartHour and RunHours place the GPS-tracked run (the paper's
	// day starts the run at hour 9).
	RunStartHour float64
	RunHours     float64
	// IncludeRun toggles the run (the paper notes the policy ranking
	// flips for a user who skips it).
	IncludeRun bool
	// ChecksPerHour is how many screen-on message checks occur per
	// waking hour.
	ChecksPerHour int
	// Seed makes the check placement reproducible.
	Seed int64
	// DT is the sample period (default 60 s).
	DT float64
}

// DefaultSmartwatchDay returns the paper's scenario: messages all day,
// a run starting at hour 9.
func DefaultSmartwatchDay() SmartwatchDayConfig {
	return SmartwatchDayConfig{
		Device:        Watch(),
		RunStartHour:  9,
		RunHours:      1.5,
		IncludeRun:    true,
		ChecksPerHour: 8,
		Seed:          1,
		DT:            60,
	}
}

// SmartwatchDay synthesizes the 24-hour watch trace of Figure 13:
// an idle floor, periodic display+radio message checks during waking
// hours (hours 7-23), and optionally a high-power GPS run.
func SmartwatchDay(cfg SmartwatchDayConfig) *Trace {
	if cfg.Device.Name == "" {
		cfg.Device = Watch()
	}
	if cfg.DT <= 0 {
		cfg.DT = 60
	}
	d := cfg.Device
	n := samples(24*3600, cfg.DT)
	tr := &Trace{Name: "smartwatch-day", DT: cfg.DT, Load: make([]float64, n)}
	for i := range tr.Load {
		tr.Load[i] = d.IdleW
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perSampleChecks := float64(cfg.ChecksPerHour) * cfg.DT / 3600
	checkLen := int(math.Max(1, 20/cfg.DT)) // ~20 s screen-on per check
	for i := 0; i < n; i++ {
		hour := float64(i) * cfg.DT / 3600
		if hour < 7 || hour > 23 {
			continue // asleep
		}
		if rng.Float64() < perSampleChecks {
			for k := i; k < i+checkLen && k < n; k++ {
				tr.Load[k] = d.IdleW + d.DisplayW + d.RadioW + d.CPUBaseW
			}
		}
	}
	if cfg.IncludeRun {
		runW := d.IdleW + d.GPSW + d.CPUBaseW + d.DisplayW*0.5
		from := int(cfg.RunStartHour * 3600 / cfg.DT)
		to := int((cfg.RunStartHour + cfg.RunHours) * 3600 / cfg.DT)
		for i := from; i < to && i < n; i++ {
			tr.Load[i] = runW
		}
	}
	return tr
}

// TwoInOneWorkload names the application mixes of Figure 14.
type TwoInOneWorkload struct {
	Name   string
	MeanW  float64
	BurstW float64
	// BurstDuty is the fraction of time at BurstW.
	BurstDuty float64
}

// TwoInOneWorkloads returns the Figure 14 workload set: the mixes a
// detachable 2-in-1 runs, spanning light reading to sustained builds.
func TwoInOneWorkloads() []TwoInOneWorkload {
	return []TwoInOneWorkload{
		{Name: "reading", MeanW: 4.5, BurstW: 6, BurstDuty: 0.05},
		{Name: "browsing", MeanW: 6, BurstW: 10, BurstDuty: 0.15},
		{Name: "video", MeanW: 7.5, BurstW: 9, BurstDuty: 0.10},
		{Name: "office", MeanW: 6.5, BurstW: 12, BurstDuty: 0.12},
		{Name: "videocall", MeanW: 9, BurstW: 12, BurstDuty: 0.20},
		{Name: "photo-edit", MeanW: 10, BurstW: 16, BurstDuty: 0.25},
		{Name: "compile", MeanW: 12, BurstW: 18, BurstDuty: 0.35},
		{Name: "gaming", MeanW: 14, BurstW: 20, BurstDuty: 0.45},
	}
}

// Trace renders the workload as a square wave of the given duration.
func (w TwoInOneWorkload) Trace(durationS, dt float64) *Trace {
	base := (w.MeanW - w.BurstW*w.BurstDuty) / (1 - w.BurstDuty)
	if base < 0 {
		base = 0
	}
	tr := Square("2in1-"+w.Name, base, w.BurstW, 60, w.BurstDuty, durationS, dt)
	return tr
}

// ChargeSession returns a trace of a plugged-in device: constant
// external supply with a light system load.
func ChargeSession(name string, supplyW, loadW, durationS, dt float64) *Trace {
	n := samples(durationS, dt)
	tr := &Trace{
		Name:     name,
		DT:       dt,
		Load:     make([]float64, n),
		External: make([]float64, n),
	}
	for i := range tr.Load {
		tr.Load[i] = loadW
		tr.External[i] = supplyW
	}
	return tr
}

// Diurnal synthesizes a generic phone-style day: background load with
// morning/evening interactive peaks, deterministic for a given seed.
func Diurnal(name string, d Device, seed int64, dt float64) *Trace {
	n := samples(24*3600, dt)
	tr := &Trace{Name: name, DT: dt, Load: make([]float64, n)}
	rng := rand.New(rand.NewSource(seed))
	for i := range tr.Load {
		hour := float64(i) * dt / 3600
		base := d.IdleW
		// Interactive intensity peaks around hours 8 and 20.
		intensity := 0.3*gauss(hour, 8, 2) + 0.5*gauss(hour, 20, 2.5)
		if hour >= 1 && hour <= 6 {
			intensity *= 0.05
		}
		load := base + intensity*(d.DisplayW+d.CPUBaseW+d.RadioW)
		// Small reproducible jitter.
		load *= 1 + 0.1*(rng.Float64()-0.5)
		tr.Load[i] = load
	}
	return tr
}

func gauss(x, mean, sigma float64) float64 {
	d := (x - mean) / sigma
	return math.Exp(-d * d / 2)
}

func samples(durationS, dt float64) int {
	if dt <= 0 || durationS <= 0 {
		return 0
	}
	return int(math.Round(durationS / dt))
}
