// Command sdbtrace generates and inspects workload traces and
// recorded telemetry.
//
// Usage:
//
//	sdbtrace gen -kind watchday -out day.csv
//	sdbtrace gen -kind constant -watts 3 -hours 2 -out load.csv
//	sdbtrace gen -kind square -low 0.5 -high 6 -period 600 -duty 0.3 -hours 4 -out sq.csv
//	sdbtrace gen -kind diurnal -device phone -out phone.csv
//	sdbtrace gen -kind charge -supply 30 -watts 2 -hours 1.5 -out plug.csv
//	sdbtrace info day.csv
//	sdbtrace export -in day.sdbstor                     # CSV to stdout
//	sdbtrace export -in day.sdbstor -format json -out day.json
//	sdbtrace export -in day.sdbstor -series sdb_pmic_steps_total
//	sdbtrace export -in day.sdbstor -since 3600 -until 7200    # one window
//	sdbtrace query -in day.sdbstor                      # list stored series
//	sdbtrace query -in day.sdbstor -series sdb_pack_soc -from 3600 -to 7200
//	sdbtrace query -in day.sdbstor -series sdb_pack_soc -down 600
//
// export converts a telemetry store recorded by `sdbsim -store` into
// CSV (long format: series,kind,time_s,value) or JSON for external
// tooling. It streams record-at-a-time, so exporting a store never
// needs memory proportional to its size. query answers time-windowed
// (optionally downsampled) reads against a store without scanning it;
// its raw samples are the same walk and CSV as export -series. A NaN
// or inverted window is a usage error (exit status 2).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"sdb/internal/obs/ts/export"
	"sdb/internal/obs/ts/store"
	"sdb/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		fatalf("missing subcommand: gen|info|export|query")
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "info":
		if len(os.Args) != 3 {
			fatalf("info needs a trace file")
		}
		info(os.Args[2])
	case "export":
		exportCmd(os.Args[2:])
	case "query":
		query(os.Args[2:])
	default:
		fatalf("unknown subcommand %q", os.Args[1])
	}
}

func gen(argv []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		kind   = fs.String("kind", "constant", "constant|square|watchday|diurnal|charge")
		watts  = fs.Float64("watts", 1.0, "load watts (constant/charge)")
		low    = fs.Float64("low", 0.5, "square low watts")
		high   = fs.Float64("high", 5.0, "square high watts")
		period = fs.Float64("period", 600, "square period seconds")
		duty   = fs.Float64("duty", 0.3, "square high-phase duty")
		hours  = fs.Float64("hours", 1.0, "duration hours")
		dt     = fs.Float64("dt", 1.0, "sample period seconds")
		supply = fs.Float64("supply", 30, "external supply watts (charge)")
		device = fs.String("device", "phone", "device profile: tablet|phone|watch (diurnal)")
		seed   = fs.Int64("seed", 1, "generator seed")
		out    = fs.String("out", "", "output file (default stdout)")
	)
	if err := fs.Parse(argv); err != nil {
		os.Exit(2)
	}

	var tr *workload.Trace
	switch *kind {
	case "constant":
		tr = workload.Constant("constant", *watts, *hours*3600, *dt)
	case "square":
		tr = workload.Square("square", *low, *high, *period, *duty, *hours*3600, *dt)
	case "watchday":
		cfg := workload.DefaultSmartwatchDay()
		cfg.Seed = *seed
		cfg.DT = *dt
		tr = workload.SmartwatchDay(cfg)
	case "diurnal":
		var d workload.Device
		switch *device {
		case "tablet":
			d = workload.Tablet()
		case "phone":
			d = workload.Phone()
		case "watch":
			d = workload.Watch()
		default:
			fatalf("unknown device %q", *device)
		}
		tr = workload.Diurnal(*device+"-day", d, *seed, *dt)
	case "charge":
		tr = workload.ChargeSession("charge", *supply, *watts, *hours*3600, *dt)
	default:
		fatalf("unknown kind %q", *kind)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := tr.WriteCSV(w); err != nil {
		fatalf("%v", err)
	}
	if *out != "" {
		fmt.Printf("wrote %s: %d samples, %.2f h, mean %.3f W, peak %.3f W\n",
			*out, tr.Len(), tr.Duration()/3600, tr.MeanW(), tr.PeakW())
	}
}

func info(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	tr, err := workload.ReadCSV(f, path)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("trace:    %s\n", tr.Name)
	fmt.Printf("samples:  %d @ %.3g s\n", tr.Len(), tr.DT)
	fmt.Printf("duration: %.3f h\n", tr.Duration()/3600)
	fmt.Printf("energy:   %.1f J (%.4f Wh)\n", tr.EnergyJ(), tr.EnergyJ()/3600)
	fmt.Printf("mean:     %.4f W   peak: %.4f W\n", tr.MeanW(), tr.PeakW())
	if tr.External != nil {
		var on int
		for _, e := range tr.External {
			if e > 0 {
				on++
			}
		}
		fmt.Printf("external: plugged for %.1f%% of the trace\n", float64(on)/float64(tr.Len())*100)
	}
}

// exportCmd converts a telemetry store to CSV or JSON, streaming
// record-at-a-time.
func exportCmd(argv []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	var (
		in     = fs.String("in", "", "input store (.sdbstor)")
		format = fs.String("format", "csv", "output format: csv|json")
		series = fs.String("series", "", "export only this series (default: all)")
		since  = fs.Float64("since", math.Inf(-1), "export only samples at or after this sim time (seconds)")
		until  = fs.Float64("until", math.Inf(1), "export only samples at or before this sim time (seconds)")
		out    = fs.String("out", "", "output file (default stdout)")
	)
	if err := fs.Parse(argv); err != nil {
		os.Exit(2)
	}
	if *in == "" {
		fatalf("export needs -in <file.sdbstor>")
	}
	checkWindow("-since", *since, "-until", *until)
	write := export.CSV
	switch *format {
	case "csv":
	case "json":
		write = export.JSON
	default:
		fatalf("unknown format %q (want csv or json)", *format)
	}
	st := openStore(*in)
	defer st.Close()
	w, done := output(*out)
	stats, err := write(w, source(st, *in, *series), *since, *until)
	if err != nil {
		fatalf("%v", err)
	}
	done()
	if *out != "" {
		fmt.Printf("wrote %s: %d series, %d samples\n", *out, stats.Series, stats.Rows)
	}
}

// query answers time-windowed reads against a paged store: with no
// -series it lists what is stored; with -series it prints the raw
// samples in [from, to] (CSV long format, the same walk as export), or
// per-bucket aggregates when -down is given.
func query(argv []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	var (
		in     = fs.String("in", "", "input store (.sdbstor)")
		series = fs.String("series", "", "series to query (default: list all)")
		from   = fs.Float64("from", math.Inf(-1), "window start, sim seconds")
		to     = fs.Float64("to", math.Inf(1), "window end, sim seconds")
		down   = fs.Float64("down", 0, "downsample into buckets of this width (seconds)")
		out    = fs.String("out", "", "output file (default stdout)")
	)
	if err := fs.Parse(argv); err != nil {
		os.Exit(2)
	}
	if *in == "" {
		fatalf("query needs -in <file.sdbstor>")
	}
	checkWindow("-from", *from, "-to", *to)
	if !(*down >= 0) || math.IsInf(*down, 1) {
		usagef("-down %g is not a finite bucket width (0 for raw samples)", *down)
	}
	st := openStore(*in)
	defer st.Close()
	w, done := output(*out)
	defer done()

	if *series == "" {
		infos := st.Series()
		fmt.Fprintf(w, "%-40s %-8s %8s %10s %12s %12s\n",
			"series", "kind", "step_s", "samples", "first_t", "last_t")
		for _, si := range infos {
			fmt.Fprintf(w, "%-40s %-8s %8g %10d %12g %12g\n",
				si.Name, si.Kind, si.StepS, si.Samples, si.FirstT, si.LastT)
		}
		s := st.Stats()
		fmt.Fprintf(w, "%d series, %d pages, generation %d\n", len(infos), s.Pages, s.Generation)
		return
	}

	if *down > 0 {
		buckets, err := st.QueryDown(*series, *from, *to, *down)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintln(w, "series,bucket_t0,count,min,max,mean")
		for _, b := range buckets {
			fmt.Fprintf(w, "%s,%s,%d,%s,%s,%s\n", *series,
				gfloat(b.T0), b.Count, gfloat(b.Min), gfloat(b.Max), gfloat(b.Mean()))
		}
		return
	}

	if _, err := export.CSV(w, source(st, *in, *series), *from, *to); err != nil {
		fatalf("%v", err)
	}
}

// checkWindow refuses a NaN or inverted read window as a usage error.
func checkWindow(loFlag string, lo float64, hiFlag string, hi float64) {
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		usagef("%s %g and %s %g are not a time window", loFlag, lo, hiFlag, hi)
	}
}

func openStore(path string) *store.Store {
	st, err := store.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	return st
}

// source is the store, narrowed to one series when name is set; a name
// the store does not hold is fatal.
func source(st *store.Store, path, name string) export.Walker {
	if name == "" {
		return st
	}
	for _, si := range st.Series() {
		if si.Name == name {
			return export.Filter(st, name)
		}
	}
	fatalf("no series named %q in %s", name, path)
	return nil
}

// output opens the -out file (stdout when empty); done closes it.
func output(path string) (io.Writer, func()) {
	if path == "" {
		return os.Stdout, func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	return f, func() {
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
	}
}

func gfloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "sdbtrace: "+format+"\n", args...)
	os.Exit(1)
}

func usagef(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "sdbtrace: "+format+"\n", args...)
	os.Exit(2)
}
