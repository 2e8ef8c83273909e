package batch

import (
	"math"
	"math/rand"
	"testing"

	"sdb/internal/battery"
)

// stateBitsEqual compares two cell states field by field at the bit
// level — the contract is bit-identity, not closeness.
func stateBitsEqual(t *testing.T, tag string, want, got battery.CellState) {
	t.Helper()
	cmp := func(name string, w, g float64) {
		t.Helper()
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("%s: %s diverged: scalar %v (%#x) batch %v (%#x)",
				tag, name, w, math.Float64bits(w), g, math.Float64bits(g))
		}
	}
	cmp("SoC", want.SoC, got.SoC)
	cmp("VRC", want.VRC, got.VRC)
	cmp("Capacity", want.Capacity, got.Capacity)
	cmp("R0Mult", want.R0Mult, got.R0Mult)
	cmp("TempC", want.TempC, got.TempC)
	cmp("AmbientC", want.AmbientC, got.AmbientC)
	cmp("TempSum", want.TempSum, got.TempSum)
	cmp("TempTime", want.TempTime, got.TempTime)
	cmp("Cycles", want.Cycles, got.Cycles)
	cmp("CumCharge", want.CumCharge, got.CumCharge)
	cmp("ChgRateSum", want.ChgRateSum, got.ChgRateSum)
	cmp("ChgCharge", want.ChgCharge, got.ChgCharge)
	cmp("DisRateSum", want.DisRateSum, got.DisRateSum)
	cmp("DisCharge", want.DisCharge, got.DisCharge)
	cmp("TotalIn", want.TotalIn, got.TotalIn)
	cmp("TotalOut", want.TotalOut, got.TotalOut)
	cmp("TotalLoss", want.TotalLoss, got.TotalLoss)
}

func resultBitsEqual(t *testing.T, tag string, want, got battery.StepResult) {
	t.Helper()
	cmp := func(name string, w, g float64) {
		t.Helper()
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("%s: result %s diverged: scalar %v batch %v", tag, name, w, g)
		}
	}
	cmp("Current", want.Current, got.Current)
	cmp("TerminalV", want.TerminalV, got.TerminalV)
	cmp("PowerW", want.PowerW, got.PowerW)
	cmp("HeatW", want.HeatW, got.HeatW)
	cmp("ChargeMoved", want.ChargeMoved, got.ChargeMoved)
	if want.Clamped != got.Clamped {
		t.Fatalf("%s: Clamped diverged: scalar %v batch %v", tag, want.Clamped, got.Clamped)
	}
	if want.CycleCompleted != got.CycleCompleted {
		t.Fatalf("%s: CycleCompleted diverged: scalar %v batch %v", tag, want.CycleCompleted, got.CycleCompleted)
	}
}

// scheduleCurrent produces a deterministic pseudo-random current for a
// step: a mix of rests (self-discharge path), moderate and absurd
// discharges (clamp paths), and charges heavy enough to complete
// cycles and trigger the aging math.
func scheduleCurrent(rng *rand.Rand, capC float64) float64 {
	c1 := capC / 3600 // 1C in amperes
	switch rng.Intn(8) {
	case 0:
		return 0 // rest: RC decay + self-discharge
	case 1:
		return c1 * rng.Float64() * 0.5
	case 2:
		return c1 * (1 + 3*rng.Float64()) // likely rate-clamped
	case 3:
		return c1 * 100 // absurd: physics clamp
	case 4, 5:
		return -c1 * rng.Float64() * 2 // charge (cycle accounting)
	case 6:
		return -c1 * 50 // absurd charge: rate + room clamps
	default:
		return c1 * (rng.Float64() - 0.3)
	}
}

// runDifferential steps a scalar cell and its batch lane through the
// same schedule, asserting bit-identical results and state after every
// step, including zero-dt edge steps and a mid-run capacity-fade
// fault masked in through the sync path.
func runDifferential(t *testing.T, par battery.Params, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	cell := battery.MustNew(par)
	cell.SetSoC(0.1 + 0.9*rng.Float64())
	eng := New()
	pk, err := eng.Checkout([]*battery.Cell{cell})
	if err != nil {
		t.Fatalf("Checkout: %v", err)
	}
	params, lanes := eng.Lanes(pk)
	p, lane := params[0], &lanes[0]

	dt := 1.0
	for k := 0; k < steps; k++ {
		switch {
		case k == steps/3:
			// Fault strikes on the scalar side (as fault injection does);
			// the engine picks it up through SyncIn like a fast segment
			// beginning after the fault.
			cell.InjectCapacityFade(0.5 + 0.4*rng.Float64())
			eng.SyncIn(pk, []*battery.Cell{cell})
		case k == steps/2:
			// Zero- and negative-dt edge: both paths must no-op alike.
			for _, edgeDT := range []float64{0, -3} {
				w := cell.StepCurrent(1, edgeDT)
				var g battery.StepResult
				lane.StepCurrent(p, 1, edgeDT, &g)
				resultBitsEqual(t, "edge-dt", w, g)
			}
		}
		i := scheduleCurrent(rng, cell.Capacity())
		var want, got battery.StepResult
		switch rng.Intn(4) {
		case 0:
			// Power-mode step through the same quadratic.
			pw := i * cell.TerminalVoltage(i)
			want = cell.StepPower(pw, dt)
			ocv, dcir, derate := lane.Entry(p)
			lane.StepPowerAt(p, ocv, dcir, derate, pw, dt, &got)
		case 1:
			// Current-mode step on the caller's entry quantities, as the
			// firmware's fast segment drives it.
			want = cell.StepCurrent(i, dt)
			ocv, dcir, derate := lane.Entry(p)
			lane.StepAt(p, ocv, dcir, derate, i, dt, &got)
		default:
			want = cell.StepCurrent(i, dt)
			lane.StepCurrent(p, i, dt, &got)
		}
		resultBitsEqual(t, par.Name, want, got)
		stateBitsEqual(t, par.Name, cell.ExportState(), *lane)
	}
}

// TestBatchDifferentialLibrary runs every library model through the
// randomized differential harness.
func TestBatchDifferentialLibrary(t *testing.T) {
	for i, par := range battery.Library() {
		par := par
		t.Run(par.Name, func(t *testing.T) {
			runDifferential(t, par, 1000+int64(i), 3000)
		})
	}
}

// TestBatchCapabilityEquivalence checks the capability and telemetry
// queries against the scalar cell across a sweep of states.
func TestBatchCapabilityEquivalence(t *testing.T) {
	for _, par := range battery.Library()[:6] {
		cell := battery.MustNew(par)
		eng := New()
		pk, err := eng.Checkout([]*battery.Cell{cell})
		if err != nil {
			t.Fatal(err)
		}
		params, lanes := eng.Lanes(pk)
		p, lane := params[0], &lanes[0]
		rng := rand.New(rand.NewSource(7))
		for k := 0; k < 400; k++ {
			cell.StepCurrent(scheduleCurrent(rng, cell.Capacity()), 1)
			eng.SyncIn(pk, []*battery.Cell{cell})
			ocv, dcir, derate := lane.Entry(p)
			checks := []struct {
				name      string
				want, got float64
			}{
				{"MaxDischargePower", cell.MaxDischargePower(), lane.MaxDischargePowerAt(p, ocv, dcir, derate)},
				{"EnergyRemainingJ", cell.EnergyRemainingJ(), lane.EnergyRemainingJ(p)},
				{"EnergyRemainingLowerBoundJ", cell.EnergyRemainingLowerBoundJ(), lane.EnergyRemainingLowerBoundJ(p)},
				// The firmware's gauge feed: Cell's expression on the
				// lane's entry quantities.
				{"TerminalVoltage", cell.TerminalVoltage(1.25), ocv - lane.VRC - 1.25*dcir},
				{"SoC", cell.SoC(), lane.SoC},
				{"Capacity", cell.Capacity(), lane.Capacity},
				{"TotalLoss", cell.TotalLoss(), lane.TotalLoss},
			}
			for _, c := range checks {
				if math.Float64bits(c.want) != math.Float64bits(c.got) {
					t.Fatalf("%s: %s diverged at k=%d: scalar %v batch %v", par.Name, c.name, k, c.want, c.got)
				}
			}
			if cell.Empty() != lane.Empty() || cell.Full() != lane.Full() {
				t.Fatalf("%s: Empty or Full diverged at k=%d", par.Name, k)
			}
		}
	}
}

// TestBatchStepCurrentBatch drives a heterogeneous multi-pack engine
// through the bulk kernel and a scalar shadow population in lockstep.
func TestBatchStepCurrentBatch(t *testing.T) {
	lib := battery.Library()
	rng := rand.New(rand.NewSource(42))
	var cells []*battery.Cell
	for i := 0; i < 24; i++ {
		c := battery.MustNew(lib[i%len(lib)])
		c.SetSoC(0.2 + 0.8*rng.Float64())
		cells = append(cells, c)
	}
	eng := New()
	pk, err := eng.Checkout(cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Len(); got != len(cells) || pk.N() != len(cells) || eng.All() != pk {
		t.Fatalf("Len = %d, pack %+v, All %+v; want %d lanes in one pack", got, pk, eng.All(), len(cells))
	}
	// Model dedupe: 24 cells over 15 library models share tables.
	if len(eng.models) != len(lib) {
		t.Fatalf("models = %d, want %d (one per library entry)", len(eng.models), len(lib))
	}

	_, lanes := eng.Lanes(pk)
	currents := make([]float64, len(cells))
	results := make([]battery.StepResult, len(cells))
	for k := 0; k < 500; k++ {
		dt := 1.0
		if k%97 == 0 {
			dt = 0 // whole-batch zero-dt edge
		}
		for i := range cells {
			currents[i] = scheduleCurrent(rng, cells[i].Capacity())
		}
		eng.StepCurrentBatch(results, pk, currents, dt)
		for i, c := range cells {
			want := c.StepCurrent(currents[i], dt)
			resultBitsEqual(t, c.Name(), want, results[i])
			stateBitsEqual(t, c.Name(), c.ExportState(), lanes[i])
		}
	}
}

// TestBatchSyncRoundTrip: checkout → advance → sync out must leave the
// destination cells in exactly the engine's state.
func TestBatchSyncRoundTrip(t *testing.T) {
	par := battery.MustByName("Standard-2000")
	a, b := battery.MustNew(par), battery.MustNew(par)
	eng := New()
	pk, err := eng.Checkout([]*battery.Cell{a})
	if err != nil {
		t.Fatal(err)
	}
	params, lanes := eng.Lanes(pk)
	for k := 0; k < 100; k++ {
		var res battery.StepResult
		lanes[0].StepCurrent(params[0], 0.8, 1, &res)
	}
	eng.SyncOut(pk, []*battery.Cell{b})
	stateBitsEqual(t, "sync", b.ExportState(), lanes[0])
	if math.Float64bits(a.ExportState().SoC) == math.Float64bits(b.ExportState().SoC) {
		t.Fatal("engine stepping leaked into the checked-out cell before SyncOut")
	}
}

// TestBatchLanesAddressThePack: Lanes hands out exactly one pack's
// params and lanes, at its offset in a multi-pack engine and capped at
// its end, so an append through one pack's slice cannot overwrite the
// next pack's lanes.
func TestBatchLanesAddressThePack(t *testing.T) {
	lib := battery.Library()
	a := []*battery.Cell{battery.MustNew(lib[0]), battery.MustNew(lib[1])}
	b := []*battery.Cell{battery.MustNew(lib[2])}
	b[0].SetSoC(0.4)
	eng := New()
	pa, err := eng.Checkout(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := eng.Checkout(b)
	if err != nil {
		t.Fatal(err)
	}
	params, lanes := eng.Lanes(pb)
	if len(params) != 1 || cap(params) != 1 || len(lanes) != 1 || cap(lanes) != 1 {
		t.Fatalf("Lanes(pb): %d/%d params, %d/%d lanes; want 1/1 each", len(params), cap(params), len(lanes), cap(lanes))
	}
	if params[0].Name != lib[2].Name {
		t.Fatalf("Lanes(pb) params are %q, want %q", params[0].Name, lib[2].Name)
	}
	stateBitsEqual(t, "pack b", b[0].ExportState(), lanes[0])
	pa2, la := eng.Lanes(pa)
	if len(la) != 2 || cap(la) != 2 || pa2[1].Name != lib[1].Name {
		t.Fatalf("Lanes(pa): %d/%d lanes, second model %q", len(la), cap(la), pa2[1].Name)
	}
	_ = append(la, battery.CellState{})
	_ = append(pa2, nil)
	stateBitsEqual(t, "pack b after an append to pack a", b[0].ExportState(), lanes[0])
	if params, _ := eng.Lanes(pb); params[0] == nil {
		t.Fatal("an append to pack a's params overwrote pack b's")
	}
}

// TestBatchCheckoutRejectsNonDense: a reference-only curve cannot be
// stepped bit-identically, so Checkout must refuse it.
func TestBatchCheckoutRejectsNonDense(t *testing.T) {
	par := battery.MustByName("Standard-2000")
	par.OCV = battery.MustCurve([]float64{0, 1}, []float64{3.0, 4.2})
	cell := battery.MustNew(par)
	if _, err := New().Checkout([]*battery.Cell{cell}); err == nil {
		t.Fatal("Checkout accepted a cell without dense curves")
	}
}

// TestBatchStepNoAllocs asserts the bulk kernel allocates nothing per
// step — the zero-per-step-allocation contract of the batch engine.
func TestBatchStepNoAllocs(t *testing.T) {
	lib := battery.Library()
	var cells []*battery.Cell
	for i := 0; i < 64; i++ {
		cells = append(cells, battery.MustNew(lib[i%len(lib)]))
	}
	eng := New()
	pk, err := eng.Checkout(cells)
	if err != nil {
		t.Fatal(err)
	}
	currents := make([]float64, len(cells))
	for i := range currents {
		currents[i] = 0.5
	}
	results := make([]battery.StepResult, len(cells))
	if avg := testing.AllocsPerRun(200, func() {
		eng.StepCurrentBatch(results, pk, currents, 1)
	}); avg != 0 {
		t.Fatalf("StepCurrentBatch allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		params, lanes := eng.Lanes(pk)
		p, lane := params[0], &lanes[0]
		var res battery.StepResult
		ocv, dcir, derate := lane.Entry(p)
		lane.StepPowerAt(p, ocv, dcir, derate, 1.5, 1, &res)
		lane.MaxDischargePowerAt(p, ocv, dcir, derate)
		lane.EnergyRemainingLowerBoundJ(p)
	}); avg != 0 {
		t.Fatalf("per-lane kernels allocate %.1f objects per call, want 0", avg)
	}
}

// FuzzBatchDifferential fuzzes a short schedule over a library model:
// whatever the inputs, scalar and batch trajectories must agree bit
// for bit.
func FuzzBatchDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.8, 1.2, 1.0)
	f.Add(int64(9), uint8(5), 0.01, -4.0, 0.25)
	f.Add(int64(77), uint8(13), 0.999, 250.0, 60.0)
	f.Add(int64(3), uint8(14), 0.5, 0.0, 0.0)
	lib := battery.Library()
	f.Fuzz(func(t *testing.T, seed int64, model uint8, soc, amp, dt float64) {
		if math.IsNaN(soc) || math.IsNaN(amp) || math.IsNaN(dt) ||
			math.IsInf(amp, 0) || math.IsInf(dt, 0) {
			return
		}
		if math.Abs(amp) > 1e6 || dt > 1e6 {
			return
		}
		par := lib[int(model)%len(lib)]
		cell := battery.MustNew(par)
		cell.SetSoC(soc)
		eng := New()
		pk, err := eng.Checkout([]*battery.Cell{cell})
		if err != nil {
			t.Fatal(err)
		}
		params, lanes := eng.Lanes(pk)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 50; k++ {
			i := amp * (rng.Float64()*2 - 1)
			want := cell.StepCurrent(i, dt)
			var got battery.StepResult
			lanes[0].StepCurrent(params[0], i, dt, &got)
			resultBitsEqual(t, par.Name, want, got)
			stateBitsEqual(t, par.Name, cell.ExportState(), lanes[0])
		}
	})
}
