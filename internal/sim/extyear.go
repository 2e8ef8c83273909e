package sim

import (
	"context"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/workload"
)

// extYear simulates a year of daily phone use — five light weekdays
// and two heavy weekend days per week, recharged every night — under
// three charging regimes, measuring what Section 3.3 calls the
// long-term tension: charging speed against the pack's capacity after
// 365 days. The schedule-aware regime picks the firmware charge
// profile per night the way the paper's OS would: fast only when the
// pack actually ended the day low, gentle otherwise.
//
// It simulates the three charging regimes' years in parallel.
func extYear(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "ext-year",
		Title:   "One year of daily cycling: charging regime vs. pack health (extension)",
		Columns: []string{"regime", "capacity after 1y %", "CCB", "mean overnight charge min"},
		Notes:   "always-fast trades pack health for speed; schedule-aware charging keeps the speed only on the nights that need it",
	}
	regimes := []struct {
		name      string
		profileFn func(packFrac float64) string
	}{
		{"always gentle", func(float64) string { return "gentle" }},
		{"always fast", func(float64) string { return "fast" }},
		{"schedule-aware", func(frac float64) string {
			if frac < 0.35 {
				return "fast" // drained day: be ready by morning no matter what
			}
			return "gentle"
		}},
	}
	type yearResult struct {
		retention, ccb, chargeMin float64
	}
	results := make([]yearResult, len(regimes))
	if err := forEach(ctx, len(regimes), func(i int) error {
		retention, ccb, chargeMin, err := runYear(regimes[i].profileFn)
		if err != nil {
			return err
		}
		results[i] = yearResult{retention, ccb, chargeMin}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, rg := range regimes {
		t.AddRowf(rg.name, results[i].retention*100, results[i].ccb, results[i].chargeMin)
	}
	return t, nil
}

// runYear cycles a two-cell phone pack for 365 synthetic days: light
// weekdays, heavy weekends, a nightly recharge whose profile the
// regime picks from the pack state.
func runYear(profileFn func(packFrac float64) string) (retention, ccb, chargeMin float64, err error) {
	st, err := emulator.NewStack(1.0, core.Options{},
		battery.MustByName("QuickCharge-2000"),
		battery.MustByName("Standard-3000"))
	if err != nil {
		return 0, 0, 0, err
	}
	lightDay := workload.Square("weekday", 0.25, 1.2, 1800, 0.3, 16*3600, 60)
	heavyDay := workload.Square("weekend", 0.4, 2.4, 1800, 0.3, 16*3600, 60)
	night := workload.ChargeSession("night", 15, 0.05, 8*3600, 60)

	var chargeSeconds float64
	const days = 365
	for d := 0; d < days; d++ {
		day := lightDay
		if d%7 >= 5 {
			day = heavyDay
		}
		if _, err := emulate(emulator.Config{
			Controller: st.Controller, Runtime: st.Runtime, Trace: day,
			PolicyEveryS: 600, RecordEveryS: emulator.NoSeries,
		}); err != nil {
			return 0, 0, 0, err
		}
		m, err := st.Runtime.Metrics()
		if err != nil {
			return 0, 0, 0, err
		}
		profile := profileFn(m.MeanSoC)
		for i := 0; i < st.Pack.N(); i++ {
			if err := st.Controller.SetChargeProfile(i, profile); err != nil {
				return 0, 0, 0, err
			}
		}
		res, err := emulate(emulator.Config{
			Controller: st.Controller, Runtime: st.Runtime, Trace: night,
			PolicyEveryS: 600,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		chargeSeconds += chargeDuration(res, night.DT)
	}
	var capNow, capDesign float64
	for i := 0; i < st.Pack.N(); i++ {
		capNow += st.Pack.Cell(i).Capacity()
		capDesign += st.Pack.Cell(i).DesignCapacity()
	}
	m, err := st.Runtime.Metrics()
	if err != nil {
		return 0, 0, 0, err
	}
	return capNow / capDesign, m.CCB, chargeSeconds / days / 60, nil
}

// chargeDuration estimates when 95% of the night's charge delta had
// arrived, from the per-cell SoC series recorded at every step of a
// trace dt seconds apart (sample k is at float64(k)*dt).
func chargeDuration(res *emulator.Result, dt float64) float64 {
	n := res.Series.Len()
	if n == 0 {
		return 0
	}
	sumAt := func(k int) float64 {
		var frac float64
		for _, soc := range res.Series.SoC {
			frac += soc[k]
		}
		return frac
	}
	start, end := sumAt(0), sumAt(n-1)
	if end <= start {
		return 0
	}
	target := start + 0.95*(end-start)
	for k := 0; k < n; k++ {
		if sumAt(k) >= target {
			return float64(k) * dt
		}
	}
	return float64(n-1) * dt
}
