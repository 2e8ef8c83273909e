// Command sdbsim runs one SDB scenario end to end and prints a
// summary: cells, policy, delivered energy, losses, depletion times,
// and final per-battery state.
//
// Usage:
//
//	sdbsim -cells QuickCharge-2000,EnergyMax-4000 -load 3 -hours 2
//	sdbsim -cells Watch-200,BendStrap-200 -policy reserve -reserve 0 -trace day.csv
//	sdbsim -load 3 -hours 2 -metrics - -tracelog -
//	sdbsim -load 3 -hours 24 -store day.sdbstor -rules alerts.txt
//	sdbsim -list-cells
//
// Policies: blended (default), rbl, ccb, reserve, proportional.
//
// -metrics and -tracelog enable the observability plane for the run
// and dump the collected registry (text exposition format), trace
// events, and policy-audit records at exit ("-" writes to stdout).
// Without them the run is uninstrumented and byte-identical to prior
// releases.
//
// -store samples the registry into time series on every policy tick
// and streams every sample into a paged telemetry store as the run
// progresses (export with `sdbtrace export`, time-windowed reads with
// `sdbtrace query`); it appends to an existing store and survives a
// crash mid-run. -rules loads alert rules (one per line, see
// internal/obs/ts) evaluated after every sample; transitions land in
// the trace/audit logs and a per-rule summary prints at exit. Either
// flag implies the observability plane.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sdb"
	"sdb/internal/acpi"
	"sdb/internal/core"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/obs/ts/store"
	"sdb/internal/workload"
)

func main() {
	var (
		cells      = flag.String("cells", "QuickCharge-2000,EnergyMax-4000", "comma-separated library cell names")
		policy     = flag.String("policy", "blended", "discharge policy: blended|rbl|ccb|reserve|proportional")
		reserve    = flag.Int("reserve", 0, "battery index to preserve (reserve policy)")
		soc        = flag.Float64("soc", 1.0, "initial state of charge")
		loadW      = flag.Float64("load", 3.0, "constant load in watts (ignored with -trace)")
		hours      = flag.Float64("hours", 2.0, "duration in hours (ignored with -trace)")
		tracePath  = flag.String("trace", "", "CSV trace file to drive the run")
		directive  = flag.Float64("directive", 0.5, "charging/discharging directive in [0,1]")
		stop       = flag.Bool("stop-when-drained", false, "end the run at the first brownout")
		listCells  = flag.Bool("list-cells", false, "list library cells and exit")
		metricsOut = flag.String("metrics", "", `write run metrics (text exposition) to this file at exit ("-" = stdout)`)
		traceOut   = flag.String("tracelog", "", `write trace events and policy-audit records to this file at exit ("-" = stdout)`)
		storeOut   = flag.String("store", "", "record registry time series into this paged store (.sdbstor), created or appended")
		rulesPath  = flag.String("rules", "", "alert-rule file evaluated on every recorder sample")
		recordStep = flag.Float64("record-step", ts.DefaultStepS, "recording cadence in simulated seconds")
	)
	flag.Parse()

	// Observability is opt-in: installing the process registry is what
	// turns instrumentation on for every layer built below. Recording
	// and alerting need the registry too.
	if *metricsOut != "" || *traceOut != "" || *rulesPath != "" || *storeOut != "" {
		obs.SetDefault(obs.NewRegistry())
	}

	if *listCells {
		fmt.Printf("%-18s %-10s %9s %9s %8s\n", "name", "chemistry", "mAh", "Wh/l", "ohm@70%")
		for _, p := range sdb.CellLibrary() {
			fmt.Printf("%-18s %-10s %9.0f %9.0f %8.3f\n",
				p.Name, p.Chem.Short(), p.CapacityAh*1000,
				p.VolumetricDensityWhPerL(false), p.DCIR.At(0.7))
		}
		return
	}

	opts := sdb.RuntimeOptions{
		ChargingDirective:    *directive,
		DischargingDirective: *directive,
	}
	switch *policy {
	case "blended":
		// Runtime default.
	case "rbl":
		opts.DischargePolicy = sdb.RBLDischarge{DerivativeAware: true}
		opts.ChargePolicy = sdb.RBLCharge{}
	case "ccb":
		opts.DischargePolicy = sdb.CCBDischarge{}
		opts.ChargePolicy = sdb.CCBCharge{}
	case "reserve":
		opts.DischargePolicy = sdb.Reserve{ReserveIdx: *reserve}
	case "proportional":
		opts.DischargePolicy = core.Proportional{}
		opts.ChargePolicy = core.Proportional{}
	default:
		fatalf("unknown policy %q", *policy)
	}

	sys, err := sdb.NewSystem(sdb.SystemConfig{
		Cells:      strings.Split(*cells, ","),
		InitialSoC: soc,
		Runtime:    opts,
	})
	if err != nil {
		fatalf("%v", err)
	}

	var rec *ts.Recorder
	var tstore *store.Store
	if *rulesPath != "" || *storeOut != "" {
		var rules []ts.Rule
		if *rulesPath != "" {
			src, err := os.ReadFile(*rulesPath)
			if err != nil {
				fatalf("%v", err)
			}
			rules, err = ts.ParseRules(string(src))
			if err != nil {
				fatalf("rules %s: %v", *rulesPath, err)
			}
		}
		var sink ts.Sink
		if *storeOut != "" {
			st, err := store.OpenOrCreate(*storeOut, store.Options{})
			if err != nil {
				fatalf("store: %v", err)
			}
			tstore = st
			sink = st
		}
		rec = ts.NewRecorder(obs.Default(), ts.Config{StepS: *recordStep, Rules: rules, Sink: sink})
		sys.Recorder = rec
	}

	var tr *sdb.Trace
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fatalf("%v", err)
		}
		tr, err = workload.ReadCSV(f, *tracePath)
		f.Close()
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		tr = workload.Constant("cli-load", *loadW, *hours*3600, 1)
	}

	res, err := sys.Run(tr, 60, *stop)
	if err != nil {
		fatalf("%v", err)
	}

	disName, chgName := sys.Runtime.PolicyNames()
	fmt.Printf("scenario: %d cells, policy %s/%s, trace %s (%.2f h, mean %.3f W)\n",
		sys.Pack.N(), disName, chgName, tr.Name, tr.Duration()/3600, tr.MeanW())
	fmt.Printf("delivered: %.1f J   circuit loss: %.1f J   battery loss: %.1f J   charged: %.1f J\n",
		res.DeliveredJ, res.CircuitLossJ, res.BatteryLossJ, res.ChargedJ)
	if res.DrainedAtS >= 0 {
		fmt.Printf("pack drained at %.2f h (%d brownout steps)\n", res.DrainedAtS/3600, res.BrownoutSteps)
	} else {
		fmt.Println("pack survived the trace")
	}
	fmt.Printf("metrics: RBL %.1f J, CCB %.3f, mean SoC %.1f%%\n",
		res.FinalMetrics.RBLJoules, res.FinalMetrics.CCB, res.FinalMetrics.MeanSoC*100)

	sts, err := sys.Status()
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%-20s %8s %9s %8s %7s %7s\n", "battery", "SoC %", "volts", "cycles", "cap %", "temp C")
	for _, s := range sts {
		fmt.Printf("%-20s %8.1f %9.3f %8.1f %7.1f %7.1f\n",
			s.Name, s.SoC*100, s.TerminalV, s.CycleCount, s.CapacityFraction*100, s.TemperatureC)
	}

	// What an unmodified application would see through ACPI.
	vb, err := acpi.Merge(sts, tr.MeanW())
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("\nACPI view: %s, %.1f%%, %.3f V, time to empty %s at the mean load\n",
		vb.State, vb.Percentage, vb.VoltageV, acpi.HoursMinutes(vb.TimeToEmptyS))

	if rec != nil {
		if tstore != nil {
			if err := rec.SinkErr(); err != nil {
				fatalf("store: %v", err)
			}
			n := len(tstore.Series())
			if err := tstore.Close(); err != nil {
				fatalf("store: %v", err)
			}
			fmt.Printf("stored %d series to %s (query with `sdbtrace query -in %s`)\n",
				n, *storeOut, *storeOut)
		}
		for _, st := range rec.AlertStates() {
			fmt.Printf("alert %-20s %-8s fired %d time(s), last value %g\n",
				st.Rule.Name, st.State, st.Fired, st.Value)
		}
	}

	dumpObs(*metricsOut, *traceOut)
}

// dumpObs writes the collected observability data at exit: the
// registry in the text exposition format, then the trace ring and
// policy-audit records one line each.
func dumpObs(metricsPath, tracePath string) {
	reg := obs.Default()
	if reg == nil {
		return
	}
	if metricsPath != "" {
		writeOut(metricsPath, reg.Text())
	}
	if tracePath != "" {
		var sb strings.Builder
		for _, ev := range reg.Tracer().Events() {
			sb.WriteString(ev.String())
			sb.WriteByte('\n')
		}
		for _, rec := range reg.Audit().Records() {
			sb.WriteString(rec.String())
			sb.WriteByte('\n')
		}
		writeOut(tracePath, sb.String())
	}
}

func writeOut(path, text string) {
	if path == "-" {
		fmt.Print(text)
		return
	}
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "sdbsim: "+format+"\n", args...)
	os.Exit(1)
}
