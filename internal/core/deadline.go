package core

import (
	"errors"
	"fmt"
	"math"

	"sdb/internal/battery"
	"sdb/internal/pmic"
)

// The paper's canonical directive example is binary: "about to board a
// plane" means charge as fast as possible, longevity be damned. This
// planner makes the tradeoff quantitative: given a departure deadline
// and a charge target, it chooses per-battery charge rates that reach
// the target in time with the least longevity damage — fast-charging
// only as much as the deadline actually requires.
//
// Damage model: charging q coulombs at C-rate c costs approximately
// (q / 0.8 cap) * FadePerCycle * (c / FadeRefC)^FadeExponent of
// capacity fraction. With q proportional to c * T (charging the whole
// window), per-battery damage grows as c^(1+e), so the loss-minimizing
// allocation equalizes marginal damage across batteries — solved here
// by bisection on the Lagrange multiplier.

// ChargeSpec carries the aging characteristics the planner needs; the
// OS gets these from manufacturer data, like the DCIR-SoC curves the
// paper's runtime uses.
type ChargeSpec struct {
	FadePerCycle float64
	FadeRefC     float64
	FadeExponent float64
	MaxChargeC   float64
}

// SpecFromParams extracts a ChargeSpec from a cell design.
func SpecFromParams(p battery.Params) ChargeSpec {
	return ChargeSpec{
		FadePerCycle: p.FadePerCycle,
		FadeRefC:     p.FadeRefC,
		FadeExponent: p.FadeExponent,
		MaxChargeC:   p.MaxChargeC,
	}
}

// Validate checks spec sanity.
func (s ChargeSpec) Validate() error {
	switch {
	case s.MaxChargeC <= 0:
		return errors.New("core: charge spec needs positive MaxChargeC")
	case s.FadePerCycle < 0:
		return errors.New("core: negative FadePerCycle")
	case s.FadePerCycle > 0 && (s.FadeRefC <= 0 || s.FadeExponent <= 0):
		return errors.New("core: fade model needs positive FadeRefC and FadeExponent")
	}
	return nil
}

// DeadlinePlan is the planner's output.
type DeadlinePlan struct {
	// RatesC is the commanded charge C-rate per battery.
	RatesC []float64
	// Ratios is the charge power-ratio vector to push to the firmware
	// (proportional to each battery's planned charging power).
	Ratios []float64
	// SupplyW is the total charging power the plan draws at the
	// battery terminals.
	SupplyW float64
	// Feasible reports whether the target is reachable by the deadline
	// at all.
	Feasible bool
	// AchievableFraction is the pack charge fraction reachable by the
	// deadline (equals or exceeds the target when feasible).
	AchievableFraction float64
	// DamageFraction estimates the capacity fraction sacrificed by
	// executing the plan (summed over batteries, capacity-weighted).
	DamageFraction float64
}

// PlanDeadlineCharge computes the minimal-damage charging plan that
// brings the pack's total charge fraction to targetFrac within
// deadlineS seconds. One spec per battery, aligned with sts.
func PlanDeadlineCharge(sts []pmic.BatteryStatus, specs []ChargeSpec, targetFrac, deadlineS float64) (DeadlinePlan, error) {
	n := len(sts)
	if n == 0 {
		return DeadlinePlan{}, errors.New("core: no battery status")
	}
	if len(specs) != n {
		return DeadlinePlan{}, fmt.Errorf("core: %d specs for %d batteries", len(specs), n)
	}
	if targetFrac <= 0 || targetFrac > 1 {
		return DeadlinePlan{}, fmt.Errorf("core: target fraction %g out of (0,1]", targetFrac)
	}
	if deadlineS <= 0 {
		return DeadlinePlan{}, fmt.Errorf("core: deadline %g must be positive", deadlineS)
	}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return DeadlinePlan{}, fmt.Errorf("core: battery %d: %w", i, err)
		}
	}

	// How many coulombs the pack needs, and per-battery bounds.
	var capTotal, haveC float64
	room := make([]float64, n) // coulombs of headroom per battery
	maxQ := make([]float64, n) // coulombs deliverable by the deadline at max rate
	for i, s := range sts {
		capTotal += s.CapacityCoulombs
		haveC += s.SoC * s.CapacityCoulombs
		room[i] = (1 - s.SoC) * s.CapacityCoulombs
		perSecond := specs[i].MaxChargeC * s.CapacityCoulombs / 3600
		maxQ[i] = math.Min(room[i], perSecond*deadlineS)
	}
	needQ := targetFrac*capTotal - haveC
	plan := DeadlinePlan{
		RatesC: make([]float64, n),
		Ratios: make([]float64, n),
	}
	if needQ <= 0 {
		// Already at target: trickle nothing.
		plan.Feasible = true
		plan.AchievableFraction = haveC / capTotal
		plan.Ratios = appendUniform(nil, n)
		return plan, nil
	}

	var maxTotal float64
	for _, q := range maxQ {
		maxTotal += q
	}
	plan.AchievableFraction = (haveC + math.Min(maxTotal, needQ)) / capTotal
	if maxTotal < needQ {
		// Infeasible: everything at max rate is the best we can do.
		plan.AchievableFraction = (haveC + maxTotal) / capTotal
		for i := range plan.RatesC {
			plan.RatesC[i] = specs[i].MaxChargeC
		}
		plan.finish(sts, specs, deadlineS, maxQ)
		return plan, nil
	}
	plan.Feasible = true

	// Bisection on the marginal-damage multiplier: higher lambda means
	// every battery charges faster. rateAt inverts the marginal
	// damage; batteries with flat fade curves (FadePerCycle 0) are
	// free and run at whatever rate is needed, capped at max.
	deliveredAt := func(lambda float64) float64 {
		var sum float64
		for i := range sts {
			sum += q(rateAt(specs[i], lambda), sts[i], deadlineS, maxQ[i])
		}
		return sum
	}
	lo, hi := 0.0, 1.0
	for deliveredAt(hi) < needQ && hi < 1e12 {
		hi *= 4
	}
	for k := 0; k < 100; k++ {
		mid := (lo + hi) / 2
		if deliveredAt(mid) < needQ {
			lo = mid
		} else {
			hi = mid
		}
	}
	for i := range sts {
		c := rateAt(specs[i], hi)
		// Don't command more rate than the coulomb bound needs.
		if bound := maxQ[i] * 3600 / (sts[i].CapacityCoulombs * deadlineS); c > bound {
			c = bound
		}
		if c > specs[i].MaxChargeC {
			c = specs[i].MaxChargeC
		}
		plan.RatesC[i] = c
	}
	plan.finish(sts, specs, deadlineS, maxQ)
	return plan, nil
}

// rateAt returns the damage-optimal C-rate for a battery at multiplier
// lambda: marginal damage (1+e) k c^e = lambda.
func rateAt(s ChargeSpec, lambda float64) float64 {
	if s.FadePerCycle <= 0 {
		return s.MaxChargeC // damage-free battery: no reason to hold back
	}
	k := s.FadePerCycle / math.Pow(s.FadeRefC, s.FadeExponent) / 0.8
	c := math.Pow(lambda/((1+s.FadeExponent)*k), 1/s.FadeExponent)
	return math.Min(c, s.MaxChargeC)
}

// q returns the coulombs a battery charging at rate c delivers by the
// deadline, capped by its headroom bound.
func q(c float64, st pmic.BatteryStatus, deadlineS, maxQ float64) float64 {
	return math.Min(c*st.CapacityCoulombs/3600*deadlineS, maxQ)
}

// finish derives ratios, supply power, and the damage estimate from
// the chosen rates.
func (p *DeadlinePlan) finish(sts []pmic.BatteryStatus, specs []ChargeSpec, deadlineS float64, maxQ []float64) {
	var powerSum, capTotal, damage float64
	for _, st := range sts {
		capTotal += st.CapacityCoulombs
	}
	weights := make([]float64, len(sts))
	for i, st := range sts {
		amps := p.RatesC[i] * st.CapacityCoulombs / 3600
		w := amps * st.TerminalV
		weights[i] = w
		powerSum += w
		if specs[i].FadePerCycle > 0 && p.RatesC[i] > 0 {
			qi := q(p.RatesC[i], st, deadlineS, maxQ[i])
			cycles := qi / (0.8 * st.CapacityCoulombs)
			fade := specs[i].FadePerCycle * math.Pow(p.RatesC[i]/specs[i].FadeRefC, specs[i].FadeExponent)
			damage += cycles * fade * st.CapacityCoulombs / capTotal
		}
	}
	p.SupplyW = powerSum
	p.DamageFraction = damage
	if powerSum <= 0 {
		p.Ratios = appendUniform(p.Ratios[:0], len(sts))
		return
	}
	for i := range weights {
		p.Ratios[i] = weights[i] / powerSum
	}
}
