package sim

import "math"

// claims is the one record of how each registry experiment compares
// with the paper, keyed by registry id: what the paper says, where, and
// the check that holds the experiment's table to it. The Test*Shape
// tests evaluate it, and EXPERIMENTS.md is generated from it.
var claims = map[string][]claim{
	"table-1": on("Table 1", says("15 battery characteristics, each with its unit", within(rowCount(), 15, 15))),
	"table-2": on("Table 2", says("three tradeoffs impact SDB policies", within(rowCount(), 3, 3))),
	"figure-1a": on("Figure 1(a)",
		says("four Li-ion types, each leading on a different axis", within(rowCount(), 4, 4)),
		says("Type 1 leads on power density", less(at("power", "chemistry", "Type2"), at("power", "chemistry", "Type1"))),
		says("Type 2 leads on energy density", less(at("energy", "chemistry", "Type1"), at("energy", "chemistry", "Type2"))),
		says("Type 4 leads only on form factor", less(at("form-factor", "chemistry", "Type1"), at("form-factor", "chemistry", "Type4"))),
	),
	"figure-1b": on("Figure 1(b)",
		says("a higher charging current fades capacity faster", less(ret10, ret07, ret05)).because(
			"The driver runs 600 cycler cycles. The `cycles` column is `Cell.CycleCount()`, equivalent full cycles, which ends at 748."),
		says("≈97% of capacity left after 600 cycles at 0.5 A", within(ret05, 93, 99.5)),
		says("≈80% of capacity left after 600 cycles at 1.0 A", within(ret10, 70, 90)),
	),
	"figure-1c": on("Figure 1(c)",
		says("at 2C, Type 3 ≈ 6–7% < Type 2 ≈ 9–10% ≪ Type 4 ≈ 30%+ of the energy is lost as heat", less(type3At2C, type2At2C, type4At2C)),
		says("Type 4 loses ≈30% at 2C", within(type4At2C, 15, 40)),
		says("Type 3 loses ≈6–7% at 2C", within(type3At2C, 6, 7)),
		says("losses grow with the discharge rate for every type", rises(at("Type2 loss %"), at("Type3 loss %"), at("Type4 loss %"))).
			because("The sweep runs 0.25–2 C."),
		misses("Type 2 loses ≈9–10% at 2C", within(type2At2C, 9, 10), "Type 2 is the Standard-3000 library cell, "+recalibrate),
		misses("Type 4 loses 30% or more at 2C", within(type4At2C, 30, inf), "Type 4 is the BendStrap-200 library cell, "+recalibrate),
	),
	"figure-6a": on("Figure 6(a)",
		says("≈1% discharge-circuit loss at light load", within(at("loss %", "load W", "0.1"), 0.5, 1.5)),
		says("≈1.6% loss at 10 W", within(at("loss %", "load W", "10"), 1.3, 2.0)),
	),
	"figure-6b": on("Figure 6(b)",
		says("the discharge proportion error stays below 0.6% from 1% to 99% settings", within(at("error %"), -inf, 0.6))),
	"figure-6c": on("Figure 6(c)",
		says("≈94% of typical charging efficiency at 2.2 A", within(at("% of typical efficiency", "charge A", "2.2"), 93, 95))),
	"figure-6d": on("Figure 6(d)",
		says("the charging current error is at most 0.5% across 0.2–2.0 A", within(at("error %"), -inf, 0.5))),
	"figure-8b": on("Figure 8(b)", says("open circuit potential rises with state of charge",
		rises(at("Standard-2000"), at("PowerPlus-2500"), at("EnergyMax-4000"), at("PowerTool-1500"), at("BendStrap-200")))),
	"figure-8c": on("Figure 8(c)", says("internal resistance falls as state of charge rises",
		falls(at("Standard-1500"), at("Standard-2000"), at("Standard-3000"), at("Slim-5000"),
			at("Watch-200"), at("PowerPlus-2500"), at("BendStrap-200"), at("QuickCharge-2000")))),
	"figure-10": on("Figure 10",
		says("the model is validated at 0.2, 0.5 and 0.7 A", within(rowCount(), 3, 3)),
		says("the fitted Thevenin model is 97.5% accurate", within(at("accuracy %"), 97, inf)).
			because("The virtual cycler is noiseless, so the fitting grid alone limits the accuracy."),
	),
	"figure-11a": on("Figure 11(a)",
		says("density falls as the fast-charging share grows", less(at(density, "config", allFast), at(density, "config", mix), at(density, "config", traditional))),
		says("≈595–600 Wh/l with no fast-charging cells", within(at(density, "config", traditional), 580, 615)),
		says("≈545–555 Wh/l for the 50/50 SDB mix", within(at(density, "config", mix), 535, 565)),
		says("≈500–510 Wh/l with all fast-charging cells, after swelling", within(at(density, "config", allFast), 490, 520)),
		says("the SDB mix gives up little density", within(ratio(at(density, "config", mix), at(density, "config", traditional)), 0.90, inf)),
		misses("the SDB mix gives up less than 7% of the density",
			within(ratio(at(density, "config", mix), at(density, "config", traditional)), 0.93, inf),
			"The paper's own plotted densities, ≈595–600 and ≈545–555 Wh/l, put the sacrifice at 7.5–9%. "+
				"The model lands inside both plotted ranges: it follows the plot, not the text."),
	),
	"figure-11b": on("Figure 11(b)",
		says("to 40%, all-fast charges fastest, then the SDB mix, then the traditional pack",
			less(at("all-fast min", "% charged", "40"), at("SDB min", "% charged", "40"), at("traditional min", "% charged", "40"))),
		says("the SDB mix reaches 40% roughly 3× faster than the traditional pack",
			within(ratio(at("traditional min", "% charged", "40"), at("SDB min", "% charged", "40")), 2.0, 4.5)),
		says("the time to charge grows with the target", rises(at("traditional min"), at("SDB min"), at("all-fast min"))),
	),
	"figure-11c": on("Figure 11(c)",
		says("retention after 1000 cycles falls as the fast-charging share grows",
			less(at("retention %", "config", allFast), at("retention %", "config", mix), at("retention %", "config", traditional))),
		says("≈90% retention with no fast charging", within(at("retention %", "config", traditional), 85, 95)),
		says("≈78% retention with all fast charging", within(at("retention %", "config", allFast), 72, 85)),
	),
	"figure-12": on("Figure 12",
		says("network- and compute-bound tasks at three priority levels", within(rowCount(), 6, 6)),
		says("a network-bound task spends up to 20.6% more energy at high priority",
			within(at("energy (norm)", "task", "network-bound", "level", "high"), 1.10, 1.30)),
		says("a network-bound task gains no latency", within(at("latency (norm)", "task", "network-bound", "level", "high"), 0.97, 1.03)),
		says("a compute-bound task scores up to 26% better at high priority",
			within(at("latency (norm)", "task", "compute-bound", "level", "high"), 0.70, 0.87)),
	),
	"figure-13": on("Figure 13",
		says("the loss-minimizing policy drains the Li-ion cell just after the run starts, at hour ≈9.5", within(liIonDead, 0.1, 12.9)).
			because("The note prints hours to 0.1 h, so the bounds sit 0.1 h inside [0, 13] h."),
		says("the day outlasts the pack under the loss-minimizing policy", within(p1Dead, 0.1, inf)),
		says("the day outlasts the pack under the preserving policy", within(p2Dead, 0.1, inf)),
		says("the preserving policy outlives the loss-minimizing one by over an hour", within(diff(p2Dead, p1Dead), 1.1, inf)).
			because("Each death hour is rounded to 0.1 h, so a gap of 1.1 h read from the note is at least 1.0 h."),
		says("the preserving policy loses less energy when the run happens", less(sum(at("policy2 loss J")), sum(at("policy1 loss J")))).
			because("The table has no total, so the check sums the hours."),
		misses("the preserving policy's pack dies at hour 19.2", within(p2Dead, 18, inf),
			"The synthetic watch day (fig13Trace) is sized so the pack dies in the evening. "+
				"The paper does not publish its day's load, and the model's pack dies about four hours earlier. "+
				"The ordering, the Li-ion death hour and the gap of over an hour all hold."),
	),
	"figure-14": on("Figure 14",
		says("eight application workloads", within(rowCount(), 8, 8)),
		says("simultaneous draw beats charge-through on every workload", less(value(0), at("improvement %"))),
		says("≈22% more battery life at the top end, the heaviest workload", within(at("improvement %", "workload", "gaming"), 15, 30)),
		says("no workload gains far more than the top end", within(at("improvement %"), -inf, 30)),
		misses("up to 22% more battery life", within(at("improvement %"), -inf, 22),
			"The gain grows with the load, since I²R losses are quadratic in current, and the model's heaviest mix, "+
				"gaming, gains the most. The paper does not publish its workloads' power draw."),
	),
	"ext-predictor": on("§8, extension",
		says("a learned schedule beats the schedule-blind loss minimizer", less(blind, learned)),
		says("a learned schedule cannot beat the hand-configured reserve", within(diff(learned, hand), -inf, 0.1)),
		says("a learned schedule recovers a real share of the gap to the hand-configured one",
			within(ratio(diff(learned, blind), diff(hand, blind)), 0.33, inf)),
	),
	"ext-thermal": on("Table 2, extension",
		says("a hotter ambient raises the peak cell temperature", less(at("peak cell C", "ambient C", "25"), at("peak cell C", "ambient C", "55"))),
		says("moderate heat ages fast-charged cells faster",
			less(at("retention % @300", "ambient C", "40"), at("retention % @300", "ambient C", "25"))),
		says("thermal protection stretches charging in extreme heat",
			within(ratio(at("charge min", "ambient C", "55"), at("charge min", "ambient C", "25")), 1.5, inf)),
	),
	"ext-deadline": on("§3.3, extension",
		says("a 30-minute dash to 80% is infeasible", within(at("deadline h", "feasible", "false"), 0.5, 0.5)).
			because("The one infeasible row is the 0.5 h deadline."),
		says("rates and damage relax as the deadline does",
			falls(at("fast-cell C", "feasible", "true"), at("dense-cell C", "feasible", "true"), at("damage ppm", "feasible", "true"))),
	),
	"ext-ev": on("§8, extension",
		says("route hints capture clearly more regen than the either-or baseline", less(value(15), diff(navCapture, at("capture %", "manager", "either-or baseline")))),
		says("route hints capture clearly more regen than the route-blind policy",
			within(diff(navCapture, at("capture %", "manager", "SDB route-blind (RBL)")), 10, inf)),
		says("route hints use less net battery energy",
			less(at("net battery kJ", "manager", "SDB + NAV hints"), at("net battery kJ", "manager", "either-or baseline"))),
	),
	"ext-year": on("§3.3, extension",
		says("always-fast charging costs pack health; schedule-aware charging keeps most of it",
			less(at(capacity, "regime", "always fast"), at(capacity, "regime", "schedule-aware"), at(capacity, "regime", "always gentle"))),
		says("schedule-aware charging keeps the speed on the nights that need it",
			less(at(overnight, "regime", "always fast"), at(overnight, "regime", "schedule-aware"), at(overnight, "regime", "always gentle"))),
	),
	"ext-quad": on("Figure 3, extension",
		says("four batteries under one controller, three split strategies", within(rowCount(), 3, 3)),
		says("loss-aware splitting wins at N=4 too",
			less(at("loss %", "policy", "rbl-discharge-derivative"), at("loss %", "policy", "proportional-baseline"), at("loss %", "policy", "fixed-25x4"))),
	),
	"spice-buck": on("§3.2.2, validation",
		says("the battery current is monotone in the buck's duty cycle", rises(at("battery A"))),
		says("below Vbatt/Vin the regulator runs in reverse and discharges the battery", less(at("battery A", "duty %", "25"), value(0))),
		says("above Vbatt/Vin the regulator charges the battery", less(value(0), at("battery A", "duty %", "60"))),
	),
	"ablation-split": on("Table 2, ablation",
		says("the loss-aware split beats the fixed 50/50 baseline", less(at("loss %", "policy", "rbl-discharge"), at("loss %", "policy", "fixed-50/50")))),
	"ablation-directive": on("Table 2, ablation",
		says("directive 1 (RBL) loses less than directive 0 (CCB)", less(at("total loss J", "directive", "1"), at("total loss J", "directive", "0"))),
		says("directive 0 (CCB) balances wear better than directive 1 (RBL)", less(at("final CCB", "directive", "0"), at("final CCB", "directive", "1"))),
	),
	"spice-ripple": on("§3.2.1, validation",
		says("with the design-size capacitor the load sees under 2% ripple", within(at("ripple %", "smoothing uF", "200"), -inf, 2)),
		says("the charge shares track the commanded duty", within(at("share err %"), -inf, 8)),
		says("more capacitance means less ripple at the same duty",
			less(at("ripple %", "duty %", "30", "smoothing uF", "200"), at("ripple %", "duty %", "30", "smoothing uF", "50"))),
	),
}

// Names and selectors several claims share.
var (
	inf         = math.Inf(1)
	recalibrate = "whose DCIR calibration (figure-8c) sets the loss. " +
		"Recalibrating it moves every table that uses the cell, and the pinned figures digests."

	ret05, ret07, ret10 = at("0.5A retention %", "cycles", "748"), at("0.7A retention %", "cycles", "748"), at("1.0A retention %", "cycles", "748")

	type2At2C, type3At2C, type4At2C = at("Type2 loss %", "C rate", "2"), at("Type3 loss %", "C rate", "2"), at("Type4 loss %", "C rate", "2")

	density, traditional, mix, allFast = "energy density Wh/l", "traditional (0% fast)", "SDB (50% fast)", "all fast (100% fast)"
	capacity, overnight                = "capacity after 1y %", "mean overnight charge min"

	liIonDead = noted("policy1 Li-ion dead", `policy1: Li-ion dead ([-.\d]+)h`)
	p1Dead    = noted("policy1 device dead", `policy1: .*device dead ([-.\d]+)h \|`)
	p2Dead    = noted("policy2 device dead", `policy2: device dead ([-.\d]+)h`)

	blind   = at("device dead h", "policy", "rbl (schedule-blind)")
	hand    = at("device dead h", "policy", "reserve (hand-configured)")
	learned = at("device dead h", "policy", "reserve (learned)")

	navCapture = at("capture %", "manager", "SDB + NAV hints")
)
