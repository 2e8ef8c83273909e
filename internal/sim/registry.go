package sim

import "context"

// Cost classifies how expensive an experiment driver is, replacing the
// old Slow boolean: fast drivers finish in well under a second, slow
// ones run multi-second emulations or endurance cycling. The runner
// uses the class to schedule long jobs first, and sdbbench -fast skips
// the slow class.
type Cost int

const (
	// CostFast drivers finish in well under a second.
	CostFast Cost = iota
	// CostSlow drivers run long emulations or endurance cycling and are
	// excluded from -fast / -short runs.
	CostSlow
)

// String names the cost class.
func (c Cost) String() string {
	if c == CostSlow {
		return "slow"
	}
	return "fast"
}

// Experiment is one registry entry: a paper table/figure driver plus
// the metadata the bench harness, CLI, and runner need to schedule and
// describe it.
type Experiment struct {
	// ID is the experiment identifier, e.g. "figure-11b".
	ID string
	// Title is a short human-readable caption.
	Title string
	// Cost classifies the driver's runtime.
	Cost Cost
	// Run regenerates the table. Drivers that fan their points out
	// through forEach skip every point when ctx is canceled before the
	// fan-out starts; once started, a driver runs to completion.
	Run func(ctx context.Context) (*Table, error)
}

// Slow reports whether the experiment belongs to the slow cost class.
func (e Experiment) Slow() bool { return e.Cost == CostSlow }

// serial adapts a context-free driver to the registry signature.
func serial(run func() (*Table, error)) func(context.Context) (*Table, error) {
	return func(context.Context) (*Table, error) { return run() }
}

// All returns the full experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table-1", Title: "Battery characteristics", Run: serial(Table1)},
		{ID: "table-2", Title: "Tradeoffs impacting SDB policies", Run: serial(Table2)},
		{ID: "figure-1a", Title: "Li-ion chemistry radar", Run: serial(Figure1a)},
		{ID: "figure-1b", Title: "Charging rate vs. longevity", Cost: CostSlow,
			Run: func(ctx context.Context) (*Table, error) { return figure1b(ctx, DefaultFigure1bCycles) }},
		{ID: "figure-1c", Title: "Discharging rate vs. lost energy", Run: figure1c},
		{ID: "figure-6a", Title: "Discharge circuit loss", Run: serial(Figure6a)},
		{ID: "figure-6b", Title: "Discharge proportion error", Run: serial(Figure6b)},
		{ID: "figure-6c", Title: "Charging efficiency", Run: serial(Figure6c)},
		{ID: "figure-6d", Title: "Charging current error", Run: serial(Figure6d)},
		{ID: "figure-8b", Title: "Open circuit potential curves", Run: serial(Figure8b)},
		{ID: "figure-8c", Title: "Internal resistance curves", Run: serial(Figure8c)},
		{ID: "figure-10", Title: "Thevenin model validation", Cost: CostSlow, Run: serial(Figure10)},
		{ID: "figure-11a", Title: "Energy density vs. configuration", Run: serial(Figure11a)},
		{ID: "figure-11b", Title: "Charging time vs. % charged", Cost: CostSlow, Run: figure11b},
		{ID: "figure-11c", Title: "Longevity after 1000 cycles", Cost: CostSlow,
			Run: func(ctx context.Context) (*Table, error) { return figure11c(ctx, DefaultFigure11cCycles) }},
		{ID: "figure-12", Title: "Turbo boost tradeoffs", Run: serial(Figure12)},
		{ID: "figure-13", Title: "Smartwatch day under two policies", Cost: CostSlow, Run: figure13},
		{ID: "figure-14", Title: "2-in-1 simultaneous draw", Cost: CostSlow, Run: figure14},
		{ID: "ext-predictor", Title: "Learned schedule-aware policy", Cost: CostSlow, Run: extPredictor},
		{ID: "ext-thermal", Title: "Ambient temperature sweep", Cost: CostSlow, Run: extThermal},
		{ID: "ext-deadline", Title: "Charge-by-deadline planning", Run: serial(ExtDeadline)},
		{ID: "ext-ev", Title: "EV route-aware policies", Cost: CostSlow, Run: serial(ExtEV)},
		{ID: "ext-year", Title: "One year of daily cycling", Cost: CostSlow, Run: extYear},
		{ID: "ext-quad", Title: "Four-cell policy ablation", Run: extQuad},
		{ID: "spice-buck", Title: "SPICE buck operating points", Run: spiceBuck},
		{ID: "ablation-split", Title: "Discharge split ablation", Run: ablationSplit},
		{ID: "ablation-directive", Title: "Charging directive ablation", Cost: CostSlow, Run: ablationDirective},
		{ID: "spice-ripple", Title: "SPICE regulator ripple", Run: spiceRipple},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Fast returns the fast-cost subset of the registry, in paper order.
func Fast() []Experiment {
	var out []Experiment
	for _, e := range All() {
		if e.Cost == CostFast {
			out = append(out, e)
		}
	}
	return out
}

// IDs returns every experiment identifier in registry order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}
