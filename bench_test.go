package sdb

// One benchmark per table and figure of the paper's evaluation, plus
// the design ablations. Run them all with:
//
//	go test -bench=. -benchmem
//
// The benchmark set is driven by the internal/sim registry, so adding
// an experiment there automatically adds its benchmark here. The time
// per op is the cost of regenerating that table/figure, and headline
// reproduction numbers are attached as custom metrics where a single
// scalar captures the result.

import (
	"context"
	"strconv"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/emulator"
	"sdb/internal/firmware"
	"sdb/internal/sim"
	"sdb/internal/workload"
)

// headlineMetric names the table cell that carries an experiment's
// headline reproduction number. Row -1 means the last row.
type headlineMetric struct {
	row  int
	col  string
	name string
}

var headlineMetrics = map[string]headlineMetric{
	"figure-1b":  {-1, "1.0A retention %", "retention1A%"},
	"figure-1c":  {-1, "Type4 loss %", "type4loss2C%"},
	"figure-6a":  {-1, "loss %", "loss10W%"},
	"figure-6c":  {-1, "% of typical efficiency", "eff2.2A%"},
	"figure-10":  {1, "accuracy %", "accuracy%"},
	"figure-11a": {1, "energy density Wh/l", "sdbWhPerL"},
	// Row 5 of figure-11b is the 40% target; the headline is SDB's
	// time advantage.
	"figure-11b": {5, "SDB min", "sdbTo40%min"},
	"figure-11c": {1, "retention %", "sdbRetention%"},
	"figure-12":  {5, "latency (norm)", "computeHighLatency"},
	"figure-14":  {-1, "improvement %", "gamingGain%"},
	"ext-ev":     {2, "capture %", "navCapture%"},
	"ext-year":   {2, "capacity after 1y %", "awareRetention%"},
}

// metricFromCell attaches a named metric from a table cell.
func metricFromCell(b *testing.B, tab *sim.Table, row int, col, name string) {
	b.Helper()
	if row < 0 {
		row = len(tab.Rows) - 1
	}
	s, ok := tab.Cell(row, col)
	if !ok {
		b.Fatalf("no cell (%d, %s)", row, col)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell (%d, %s) = %q", row, col, s)
	}
	b.ReportMetric(v, name)
}

// BenchmarkExperiment regenerates every registered experiment; filter
// with -bench=Experiment/figure-13 etc.
func BenchmarkExperiment(b *testing.B) {
	ctx := context.Background()
	for _, e := range sim.All() {
		e := e
		b.Run(e.ID, func(b *testing.B) {
			if testing.Short() && e.Slow() {
				// The CI bench smoke lane runs -short -benchtime=1x; the
				// multi-second emulations stay out of it.
				b.Skip("slow experiment skipped in -short mode")
			}
			var tab *sim.Table
			for i := 0; i < b.N; i++ {
				var err error
				tab, err = e.Run(ctx)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(tab.Rows)), "rows")
			if hm, ok := headlineMetrics[e.ID]; ok {
				metricFromCell(b, tab, hm.row, hm.col, hm.name)
			}
		})
	}
}

// BenchmarkEmulatorDay is the headline hot-loop benchmark: one
// simulated day (86400 one-second firmware steps) of a two-cell pack
// under a constant load, firmware-only. ns/op divided by 86400 is the
// end-to-end cost of one emulation step.
func BenchmarkEmulatorDay(b *testing.B) {
	cells := []*battery.Cell{
		battery.MustNew(battery.MustByName("Slim-5000")),
		battery.MustNew(battery.MustByName("EnergyMax-8000")),
	}
	pack, err := battery.NewPack(cells...)
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := firmware.NewController(firmware.DefaultConfig(pack))
	if err != nil {
		b.Fatal(err)
	}
	const daySteps = 24 * 3600
	tr := &workload.Trace{Name: "bench-day", DT: 1, Load: make([]float64, daySteps)}
	for i := range tr.Load {
		tr.Load[i] = 1.5 // survives the day on ~47 Wh of pack
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, c := range cells {
			c.SetSoC(1)
		}
		b.StartTimer()
		res, err := emulator.Run(emulator.Config{Controller: ctrl, Trace: tr, RecordEveryS: 60})
		if err != nil {
			b.Fatal(err)
		}
		if res.Steps != daySteps {
			b.Fatalf("ran %d steps, want %d", res.Steps, daySteps)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/daySteps, "ns/step")
}

// BenchmarkRunnerFastSubset measures the worker pool regenerating the
// whole fast subset, at one worker and at the default pool size.
func BenchmarkRunnerFastSubset(b *testing.B) {
	for _, workers := range []int{1, 0} { // 0 = GOMAXPROCS default
		r := &sim.Runner{Workers: workers}
		name := "j=default"
		if workers == 1 {
			name = "j=1"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				batch := r.Run(context.Background(), sim.Fast())
				if err := batch.FirstErr(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
