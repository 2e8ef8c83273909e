// Command sdbctl talks the SDB control protocol to a microcontroller
// over TCP — the command-line equivalent of the SDB Runtime's bus
// client. `sdbctl serve` hosts emulated firmware to talk to: one
// device built from -cells by default, or a fleet of them with -fleet
// N. Both are the same fleet server, so checkpoints, telemetry
// recording, alert rules and the graceful drain work either way.
//
// Usage:
//
//	sdbctl serve -addr :7070 -cells QuickCharge-2000,EnergyMax-4000 -load 2 -watchdog 300
//	sdbctl serve -addr :7070 -checkpoint one.ckpt -store one.sdbstor -rules rules.txt
//	sdbctl -addr localhost:7070 status
//	sdbctl -addr localhost:7070 ratios
//	sdbctl -addr localhost:7070 discharge 0.7,0.3
//	sdbctl -addr localhost:7070 charge 0.5,0.5
//	sdbctl -addr localhost:7070 transfer 1 0 2.5 600
//	sdbctl -addr localhost:7070 profile 0 fast
//	sdbctl -addr localhost:7070 ping
//	sdbctl -addr localhost:7070 -retries 3 -timeout 500ms health
//	sdbctl -addr localhost:7070 metrics
//	sdbctl -addr localhost:7070 -raw metrics
//	sdbctl metrics -diff before.txt after.txt -span 60s
//	sdbctl -addr localhost:7070 trace
//	sdbctl -addr localhost:7070 series
//	sdbctl -addr localhost:7070 series sdb_pmic_steps_total
//	sdbctl -addr localhost:7070 watch -every 2s -count 10 -rules alerts.txt
//
// Every endpoint is a fleet: plain `sdbctl serve` hosts device 0 alone,
// `sdbctl serve -fleet N` hosts N devices behind one address. Every
// per-device command above takes -dev to pick the target (default 0,
// the id legacy frames land on), and the fleet command group queries
// the fleet itself:
//
//	sdbctl serve -fleet 1000 -shards 8 -addr :7070
//	sdbctl serve -fleet 1000 -checkpoint fleet.ckpt -every 10
//	sdbctl -addr localhost:7070 -dev 42 status
//	sdbctl -addr localhost:7070 fleet list
//	sdbctl -addr localhost:7070 fleet stat
//	sdbctl -addr localhost:7070 fleet subs
//	sdbctl -addr localhost:7070 fleet broadcast discharge 0.7,0.3
//	sdbctl -addr localhost:7070 fleet snapshot
//	sdbctl fleet restore fleet.ckpt
//
// With -checkpoint the server writes a durable snapshot of every
// device's state to the path every -every ticks, restores from it at
// startup when it exists, and drains gracefully on SIGINT/SIGTERM —
// refusing new commands with the retryable draining status, finishing
// the in-flight tick, and writing a final checkpoint before exiting. The file is a journal: its first
// write is a full snapshot (temp file + rename), and each later one
// appends a delta record of the history added since. `fleet snapshot`
// asks a live server to rewrite it as one full snapshot now; `fleet
// restore` is a local command that validates a checkpoint file and
// summarizes what a restart would load.
//
// The -timeout, -retries, and -backoff flags configure the resilient
// bus client: each call retries retryable failures (lost or corrupted
// frames) up to -retries times with exponentially growing -backoff,
// while firmware rejections fail fast. The health command probes link
// quality and reports any firmware-isolated cells.
//
// metrics prints p50/p99 estimates under every histogram family.
// `metrics -diff` needs no controller: it parses two exposition dumps
// and prints per-counter deltas (plus rates with -span). series lists
// or fetches the controller's recorded time series. watch scrapes the
// controller periodically, feeds a local recorder, and prints counter
// rates, gauge values, and alert-rule states each round.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sdb"
	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/fleet"
	"sdb/internal/fleet/snapshot"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/obs/ts/store"
	"sdb/internal/pmic"
	"sdb/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serve(os.Args[2:])
		return
	}
	// `metrics -diff` compares two local exposition dumps; it must not
	// require (or dial) a live controller.
	if len(os.Args) > 2 && os.Args[1] == "metrics" && os.Args[2] == "-diff" {
		metricsDiff(os.Args[3:])
		return
	}
	// `fleet restore` inspects a local checkpoint file — no endpoint.
	if len(os.Args) > 2 && os.Args[1] == "fleet" && os.Args[2] == "restore" {
		fleetRestore(os.Args[3:])
		return
	}
	addr := flag.String("addr", "localhost:7070", "controller address")
	dev := flag.Uint("dev", 0, "target device id (0 = the device legacy version-1 frames reach)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-attempt round-trip timeout")
	retries := flag.Int("retries", 2, "retry attempts after a retryable failure")
	backoff := flag.Duration("backoff", 50*time.Millisecond, "initial retry backoff (doubles per retry)")
	raw := flag.Bool("raw", false, "metrics: print the exposition text verbatim instead of the aligned table")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fatalf("missing command (ping|status|ratios|discharge|charge|transfer|profile|health|metrics|trace|series|watch|fleet)")
	}
	if *dev > 0xFFFF {
		fatalf("-dev %d out of range (device ids are 16-bit)", *dev)
	}

	dial := func() (io.ReadWriter, error) {
		return net.DialTimeout("tcp", *addr, 5*time.Second)
	}
	conn, err := dial()
	if err != nil {
		fatalf("dial %s: %v", *addr, err)
	}
	defer conn.(net.Conn).Close()
	cl := pmic.NewClient(conn)
	cl.Timeout = *timeout
	cl.Retries = *retries
	cl.Backoff = *backoff
	cl.Dial = dial
	d := cl.Device(uint16(*dev))

	switch args[0] {
	case "ping":
		must(d.Ping())
		fmt.Println("ok")
	case "status":
		sts, err := d.QueryBatteryStatus()
		must(err)
		fmt.Printf("%-3s %-20s %-8s %7s %8s %8s %8s %9s\n",
			"idx", "name", "chem", "SoC %", "volts", "cycles", "cap %", "maxW")
		for _, s := range sts {
			fmt.Printf("%-3d %-20s %-8s %7.1f %8.3f %8.1f %8.1f %9.2f\n",
				s.Index, s.Name, s.Chem, s.SoC*100, s.TerminalV, s.CycleCount,
				s.CapacityFraction*100, s.MaxDischargeW)
		}
	case "ratios":
		dis, chg, err := d.Ratios()
		must(err)
		fmt.Printf("discharge: %v\ncharge:    %v\n", dis, chg)
	case "discharge", "charge":
		if len(args) != 2 {
			fatalf("%s needs a ratio list, e.g. 0.7,0.3", args[0])
		}
		ratios, err := parseRatios(args[1])
		must(err)
		if args[0] == "discharge" {
			must(d.Discharge(ratios))
		} else {
			must(d.Charge(ratios))
		}
		fmt.Println("ok")
	case "transfer":
		if len(args) != 5 {
			fatalf("transfer needs: fromIdx toIdx watts seconds")
		}
		from, err1 := strconv.Atoi(args[1])
		to, err2 := strconv.Atoi(args[2])
		w, err3 := strconv.ParseFloat(args[3], 64)
		secs, err4 := strconv.ParseFloat(args[4], 64)
		for _, err := range []error{err1, err2, err3, err4} {
			must(err)
		}
		must(d.ChargeOneFromAnother(from, to, w, secs))
		fmt.Println("ok")
	case "profile":
		if len(args) != 3 {
			fatalf("profile needs: battIdx profileName")
		}
		batt, err := strconv.Atoi(args[1])
		must(err)
		must(d.SetChargeProfile(batt, args[2]))
		fmt.Println("ok")
	case "health":
		health(d)
	case "metrics":
		metrics(d, *raw)
	case "trace":
		events, err := d.TraceEvents()
		must(err)
		if len(events) == 0 {
			fmt.Println("trace ring empty")
			return
		}
		for _, ev := range events {
			fmt.Println(ev.String())
		}
	case "series":
		series(d, args[1:])
	case "watch":
		watch(d, args[1:])
	case "fleet":
		fleetCmd(cl, args[1:])
	default:
		fatalf("unknown command %q", args[0])
	}
}

// fleetCmd talks to the fleet endpoint itself rather than a single
// hosted device: list the registry, print aggregate stats, or fan a
// per-device command out to every listed device over the one
// connection.
func fleetCmd(cl *pmic.Client, args []string) {
	if len(args) == 0 {
		fatalf("fleet needs a subcommand (list|stat|subs|broadcast|snapshot|restore)")
	}
	switch args[0] {
	case "list":
		ids, err := cl.FleetDevices()
		must(err)
		for _, id := range ids {
			fmt.Println(id)
		}
		fmt.Printf("%d device(s)\n", len(ids))
	case "stat":
		st, err := cl.FleetStat()
		must(err)
		fmt.Printf("devices:          %d across %d shard(s)\n", st.Devices, st.Shards)
		fmt.Printf("steps:            %d total\n", st.Steps)
		fmt.Printf("churn:            %d add/remove event(s)\n", st.Churn)
		fmt.Printf("throughput:       %.0f device-steps/s (last tick)\n", st.DeviceStepsPerSec)
		fmt.Printf("cmd p99:          %s\n", time.Duration(st.CmdP99Seconds*float64(time.Second)))
		fmt.Printf("quarantined:      %d device(s)\n", st.Quarantined)
		draining := "no"
		if st.Draining {
			draining = "yes"
		}
		fmt.Printf("draining:         %s\n", draining)
	case "snapshot":
		path, size, err := cl.FleetSnapshot()
		must(err)
		fmt.Printf("checkpoint written: %s (%d bytes)\n", path, size)
	case "subs":
		subs, err := cl.FleetSubs()
		must(err)
		for _, s := range subs {
			scope := fmt.Sprintf("%d device(s)", s.Devices)
			if s.FleetWide {
				scope = "fleet-wide"
			}
			var sig []string
			if s.Signals&pmic.SubSigMetrics != 0 {
				sig = append(sig, "metrics")
			}
			if s.Signals&pmic.SubSigTrace != 0 {
				sig = append(sig, "trace")
			}
			if s.Signals&pmic.SubSigAlerts != 0 {
				sig = append(sig, "alerts")
			}
			fmt.Printf("sub %d: %s %s, pushed %d, dropped %d\n",
				s.ID, scope, strings.Join(sig, "+"), s.Pushed, s.Dropped)
		}
		fmt.Printf("%d subscription(s)\n", len(subs))
	case "broadcast":
		// broadcast discharge 0.7,0.3 | broadcast charge 0.5,0.5 |
		// broadcast ping — apply one command to every device the
		// endpoint lists, reporting per-device failures without
		// aborting the sweep.
		if len(args) < 2 {
			fatalf("fleet broadcast needs a command (ping|discharge|charge)")
		}
		var apply func(pmic.DeviceClient) error
		switch args[1] {
		case "ping":
			apply = pmic.DeviceClient.Ping
		case "discharge", "charge":
			if len(args) != 3 {
				fatalf("fleet broadcast %s needs a ratio list, e.g. 0.7,0.3", args[1])
			}
			ratios, err := parseRatios(args[2])
			must(err)
			if args[1] == "discharge" {
				apply = func(d pmic.DeviceClient) error { return d.Discharge(ratios) }
			} else {
				apply = func(d pmic.DeviceClient) error { return d.Charge(ratios) }
			}
		default:
			fatalf("fleet broadcast: unknown command %q", args[1])
		}
		ids, err := cl.FleetDevices()
		must(err)
		failed := 0
		for _, id := range ids {
			if err := apply(cl.Device(id)); err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "sdbctl: device %d: %v\n", id, err)
			}
		}
		fmt.Printf("broadcast %s: %d ok, %d failed\n", args[1], len(ids)-failed, failed)
		if failed > 0 {
			os.Exit(1)
		}
	default:
		fatalf("unknown fleet subcommand %q (list|stat|subs|broadcast|snapshot|restore)", args[0])
	}
}

// health probes the control link and the pack: round-trip latency over
// a burst of pings, then a status sweep flagging firmware-isolated
// cells.
func health(cl pmic.DeviceClient) {
	const probes = 10
	var okCount int
	var min, max, sum time.Duration
	for i := 0; i < probes; i++ {
		start := time.Now()
		if err := cl.Ping(); err != nil {
			continue
		}
		rtt := time.Since(start)
		if okCount == 0 || rtt < min {
			min = rtt
		}
		if rtt > max {
			max = rtt
		}
		sum += rtt
		okCount++
	}
	if okCount == 0 {
		fatalf("health: link dead — %d/%d pings failed", probes, probes)
	}
	fmt.Printf("link:  %d/%d pings ok, rtt min/avg/max %s/%s/%s\n",
		okCount, probes, min, sum/time.Duration(okCount), max)

	sts, err := cl.QueryBatteryStatus()
	must(err)
	faulted := 0
	for _, s := range sts {
		if s.Faulted {
			faulted++
			fmt.Printf("cell %d (%s): FAULTED — isolated by firmware\n", s.Index, s.Name)
		}
	}
	if faulted == 0 {
		fmt.Printf("cells: %d healthy, 0 faulted\n", len(sts))
	} else {
		fmt.Printf("cells: %d healthy, %d faulted\n", len(sts)-faulted, faulted)
	}
	var energy float64
	for _, s := range sts {
		energy += s.EnergyRemainingJ
	}
	fmt.Printf("pack:  %.1f kJ remaining\n", energy/1000)
}

// metrics scrapes the controller's registry and prints it. The wire
// text always runs through obs.ParseText — even in -raw mode — so a
// corrupted or truncated-mid-line response is reported, not echoed.
func metrics(cl pmic.DeviceClient, raw bool) {
	text, err := cl.Metrics()
	must(err)
	if text == "" {
		fmt.Println("no metrics: controller is uninstrumented")
		return
	}
	fams, err := obs.ParseText(text)
	if err != nil {
		fatalf("metrics: malformed exposition: %v", err)
	}
	if raw {
		fmt.Print(text)
		return
	}
	for _, f := range fams {
		for _, s := range f.Samples {
			name := f.Name
			switch {
			case s.Label == "sum" || s.Label == "count":
				name += "_" + s.Label
			case s.Label != "":
				name += "{" + s.Label + "}"
			}
			fmt.Printf("%-55s %g\n", name, s.Value)
		}
		if f.Kind == obs.KindHistogram {
			// Derived percentiles so a step-timing glance needs no
			// external tooling; NaN means the histogram is still empty.
			for _, q := range []float64{0.5, 0.99} {
				if v, ok := obs.FamilyQuantile(f, q); ok {
					fmt.Printf("%-55s %g\n", fmt.Sprintf("%s_p%g", f.Name, q*100), v)
				}
			}
		}
	}
}

// metricsDiff compares two exposition dumps offline: counter families
// are printed with their delta (and, with -span, the per-second rate
// over that interval). Gauges print old -> new. Typical use: scrape
// `sdbctl metrics -raw` twice and diff the files.
func metricsDiff(argv []string) {
	fs := flag.NewFlagSet("metrics -diff", flag.ExitOnError)
	span := fs.Duration("span", 0, "time between the two scrapes (enables rate column)")
	// Accept flags on either side of the two file operands: flag.Parse
	// stops at the first non-flag argument, so re-parse any remainder.
	if err := fs.Parse(argv); err != nil {
		os.Exit(2)
	}
	var files []string
	for fs.NArg() > 0 {
		rest := fs.Args()
		files = append(files, rest[0])
		if err := fs.Parse(rest[1:]); err != nil {
			os.Exit(2)
		}
	}
	if len(files) != 2 {
		fatalf("metrics -diff needs two exposition files: before.txt after.txt")
	}
	parse := func(path string) map[string]obs.Family {
		raw, err := os.ReadFile(path)
		must(err)
		fams, err := obs.ParseText(string(raw))
		if err != nil {
			fatalf("%s: %v", path, err)
		}
		byName := make(map[string]obs.Family, len(fams))
		for _, f := range fams {
			byName[f.Name] = f
		}
		return byName
	}
	before, after := parse(files[0]), parse(files[1])

	names := make([]string, 0, len(after))
	for name := range after {
		names = append(names, name)
	}
	sort.Strings(names)

	if *span > 0 {
		fmt.Printf("%-55s %14s %14s %12s\n", "counter", "before", "after", "per-second")
	} else {
		fmt.Printf("%-55s %14s %14s %12s\n", "counter", "before", "after", "delta")
	}
	for _, name := range names {
		f := after[name]
		if f.Kind != obs.KindCounter || len(f.Samples) != 1 {
			continue
		}
		var was float64
		if b, ok := before[name]; ok && len(b.Samples) == 1 {
			was = b.Samples[0].Value
		}
		now := f.Samples[0].Value
		d := now - was
		if *span > 0 {
			fmt.Printf("%-55s %14g %14g %12g\n", name, was, now, d/span.Seconds())
		} else {
			fmt.Printf("%-55s %14g %14g %+12g\n", name, was, now, d)
		}
	}
	for _, name := range names {
		f := after[name]
		if f.Kind != obs.KindGauge || len(f.Samples) != 1 {
			continue
		}
		var was float64
		if b, ok := before[name]; ok && len(b.Samples) == 1 {
			was = b.Samples[0].Value
		}
		fmt.Printf("%-55s %14g -> %g\n", name+" (gauge)", was, f.Samples[0].Value)
	}
}

// series lists the controller's recorded time series, or fetches one
// and prints its newest window.
func series(cl pmic.DeviceClient, args []string) {
	if len(args) == 0 {
		names, err := cl.SeriesNames()
		must(err)
		if len(names) == 0 {
			fmt.Println("no series: controller has no recorder attached")
			return
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}
	win, err := cl.Series(args[0])
	must(err)
	fmt.Printf("series:  %s (%s)\n", win.Name, win.Kind)
	fmt.Printf("grid:    %g s cadence from t=%g s\n", win.StepS, win.FirstT)
	fmt.Printf("samples: %d retained of %d recorded\n", len(win.Values), win.Total)
	for i, v := range win.Values {
		fmt.Printf("%10g %g\n", win.FirstT+float64(i)*win.StepS, v)
	}
}

// watch periodically scrapes the controller's registry, evaluates the
// alert rules over the scraped series through the ts alert engine, and
// prints counter rates, gauge values, histogram quantiles and alert
// states — a minimal top(1) for the firmware.
func watch(cl pmic.DeviceClient, args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	var (
		every     = fs.Duration("every", 2*time.Second, "scrape interval")
		count     = fs.Int("count", 0, "rounds to run (0 = until interrupted)")
		rulesPath = fs.String("rules", "", "alert-rule file evaluated against the scraped series")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	// A zero or negative interval would spin the scrape loop and stamp
	// every round at the same (or a receding) time.
	if *every <= 0 {
		fmt.Fprintf(os.Stderr, "sdbctl: watch: -every %v: the scrape interval must be positive\n", *every)
		fs.Usage()
		os.Exit(2)
	}
	var rules []ts.Rule
	if *rulesPath != "" {
		src, err := os.ReadFile(*rulesPath)
		must(err)
		rules, err = ts.ParseRules(string(src))
		if err != nil {
			fatalf("rules %s: %v", *rulesPath, err)
		}
	}
	stepS := every.Seconds()
	eng := ts.NewEngine(rules)
	sub := eng.NewSubject()
	in := make([]ts.Reading, len(rules))
	fired := make([]int, len(rules))
	var prev map[string]float64

	for round := 0; *count == 0 || round < *count; round++ {
		if round > 0 {
			time.Sleep(*every)
		}
		text, err := cl.Metrics()
		must(err)
		if text == "" {
			fatalf("watch: controller is uninstrumented")
		}
		fams, err := obs.ParseText(text)
		if err != nil {
			fatalf("watch: malformed exposition: %v", err)
		}
		t := float64(round) * stepS
		vals := scrapedSeries(fams)
		for i, ru := range rules {
			v, ok := vals[ru.Series]
			in[i] = ts.Reading{V: v, NoData: !ok}
		}
		for _, ed := range eng.Eval(sub, t, in) {
			if ed.To == ts.StateFiring {
				fired[ed.Rule]++
			}
		}

		fmt.Printf("-- t=%gs --\n", t)
		for _, f := range fams {
			switch f.Kind {
			case obs.KindCounter:
				if len(f.Samples) != 1 {
					continue
				}
				// Rate over the last scrape interval; the first round
				// has one sample and no defined rate yet.
				if was, ok := prev[f.Name]; ok {
					fmt.Printf("%-55s %14g %10.3g/s\n", f.Name, f.Samples[0].Value, (f.Samples[0].Value-was)/stepS)
				} else {
					fmt.Printf("%-55s %14g %10s\n", f.Name, f.Samples[0].Value, "-")
				}
			case obs.KindGauge:
				if len(f.Samples) != 1 {
					continue
				}
				fmt.Printf("%-55s %14g\n", f.Name, f.Samples[0].Value)
			case obs.KindHistogram:
				p50, ok50 := obs.FamilyQuantile(f, 0.5)
				p99, ok99 := obs.FamilyQuantile(f, 0.99)
				if ok50 && ok99 {
					fmt.Printf("%-55s p50 %.3g  p99 %.3g\n", f.Name, p50, p99)
				}
			}
		}
		for i, st := range sub.Alerts {
			fmt.Printf("alert %-20s %-8s fired %d time(s), value %g\n",
				rules[i].Name, st.State, fired[i], st.Value)
		}
		prev = vals
	}
}

// scrapedSeries names a scrape's values as the recorder names its
// series: a single-sample counter or gauge under its family name, a
// histogram as name_bucket{le="…"}, name_sum and name_count.
func scrapedSeries(fams []obs.Family) map[string]float64 {
	vals := make(map[string]float64)
	for _, f := range fams {
		switch f.Kind {
		case obs.KindCounter, obs.KindGauge:
			if len(f.Samples) == 1 {
				vals[f.Name] = f.Samples[0].Value
			}
		case obs.KindHistogram:
			for _, s := range f.Samples {
				switch s.Label {
				case "sum", "count":
					vals[f.Name+"_"+s.Label] = s.Value
				default:
					// ParseText accepted the bound; render it as the
					// recorder does.
					le, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(s.Label, `le="`), `"`), 64)
					vals[f.Name+"_bucket{"+obs.FormatLe(le)+"}"] = s.Value
				}
			}
		}
	}
	return vals
}

// fleetRestore validates a local checkpoint file and summarizes what a
// `serve -checkpoint` restart would load from it. It needs no
// live endpoint: the point is to vet a checkpoint (after a crash, or
// before shipping one to another host) without starting a fleet.
func fleetRestore(args []string) {
	if len(args) != 1 {
		fatalf("fleet restore needs exactly one checkpoint file")
	}
	snap, err := snapshot.ReadFile(args[0])
	must(err)
	quarantined := 0
	errored := 0
	for i := range snap.Devices {
		switch {
		case snap.Devices[i].Quarantined:
			quarantined++
		case snap.Devices[i].ErrMsg != "":
			errored++
		}
	}
	fmt.Printf("checkpoint:  %s\n", args[0])
	fmt.Printf("devices:     %d\n", len(snap.Devices))
	fmt.Printf("fleet steps: %d\n", snap.FleetSteps)
	fmt.Printf("quarantined: %d\n", quarantined)
	fmt.Printf("errored:     %d\n", errored)
	for i := range snap.Devices {
		d := &snap.Devices[i]
		if d.Quarantined {
			fmt.Printf("  device %d quarantined: %s\n", d.ID, d.QuarantineReason)
		} else if d.ErrMsg != "" {
			fmt.Printf("  device %d errored: %s\n", d.ID, d.ErrMsg)
		}
	}
}

// serve hosts emulated devices behind one TCP listener, multiplexed by
// device id in the frame header (version-1 frames land on device 0). A
// wall-clock ticker advances every device -speed one-second steps per
// wall second until its -dur trace drains, then the server keeps
// serving the final state. Without -fleet it hosts one device built
// from -cells, instrumented on the server's registry; with -fleet N it
// hosts N uninstrumented devices (see fleetServer). Either way the same
// fleet server runs: -checkpoint, -store, -rules and the graceful drain
// work for one device as for many.
func serve(argv []string) {
	var o serveOptions
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", ":7070", "listen address")
	fs.StringVar(&o.cells, "cells", "QuickCharge-2000,EnergyMax-4000", "library cells of the one device served without -fleet")
	fs.Float64Var(&o.loadW, "load", 2.0, "constant system load in watts")
	fs.Float64Var(&o.speed, "speed", 60, "simulated seconds per wall second, a whole number (1 s steps per tick)")
	fs.Float64Var(&o.watchdog, "watchdog", 0, "without -fleet: revert to uniform ratios after this many simulated seconds of command silence (0 disables)")
	fs.IntVar(&o.n, "fleet", 0, "host this many emulated devices behind one endpoint (0 = one instrumented device built from -cells)")
	fs.IntVar(&o.shards, "shards", 4, "worker shards driving the devices")
	fs.IntVar(&o.batch, "batch", 64, "steps per device per scheduling slice")
	fs.Float64Var(&o.durS, "dur", 86400, "per-device trace length in simulated seconds")
	fs.StringVar(&o.ckpt, "checkpoint", "", "durable checkpoint journal path (a full snapshot first, then a delta appended every -every ticks; restored at startup when present)")
	fs.IntVar(&o.every, "every", 10, "ticks between automatic checkpoints")
	fs.StringVar(&o.storePath, "store", "", "record per-device telemetry into this paged store (.sdbstor), created or appended")
	fs.IntVar(&o.recEvery, "record-every", 1, "ticks between telemetry recordings (with -store)")
	rulesPath := fs.String("rules", "", "alert rule file (ts DSL over soc/health/steps/temp_c/energy_j), evaluated per device at every tick barrier")
	if err := fs.Parse(argv); err != nil {
		os.Exit(2)
	}
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "sdbctl: serve: "+format+"\n", args...)
		fs.Usage()
		os.Exit(2)
	}
	// A tick is int(speed) one-second steps while the recorder stamps
	// its samples speed seconds apart: a fractional speed would stall
	// (0 steps) or drift from the devices' clock.
	if !(o.speed >= 1 && o.speed <= math.MaxInt32 && o.speed == math.Trunc(o.speed)) {
		usage("-speed %g: must be a whole number of simulated seconds from 1 to %d", o.speed, math.MaxInt32)
	}
	if !(o.durS > 0 && o.durS <= math.MaxFloat64) {
		usage("-dur %g: the trace length must be finite and positive", o.durS)
	}
	if o.shards < 1 {
		usage("-shards %d: must be at least 1", o.shards)
	}
	if *rulesPath != "" {
		src, err := os.ReadFile(*rulesPath)
		if err != nil {
			fatalf("%v", err)
		}
		o.rules, err = ts.ParseRules(string(src))
		if err != nil {
			fatalf("rules %s: %v", *rulesPath, err)
		}
		if err := fleet.ValidateRules(o.rules); err != nil {
			fatalf("rules %s: %v", *rulesPath, err)
		}
	}
	serveFleet(o)
}

// serveOptions are serve's settings, one field per flag.
type serveOptions struct {
	addr, cells                  string
	n, shards, batch             int
	loadW, speed, watchdog, durS float64
	ckpt, storePath              string
	every, recEvery              int
	rules                        []ts.Rule
}

// serveFleet runs the server: it opens the fleet (openFleet), then
// ticks it once per wall second and serves every accepted connection
// with fleet.Fleet.Serve.
//
// With o.ckpt set the server checkpoints every o.every ticks, restores
// from an existing checkpoint at startup, and drains gracefully on
// SIGINT/SIGTERM: in-flight tick finished, final checkpoint written,
// then exit.
//
// With o.storePath set every device's SoC and step count stream into a
// paged telemetry store at each tick barrier (thinned by o.recEvery),
// synced to disk every few ticks and closed cleanly on drain; query it
// live or after the fact with `sdbtrace query -in <store>`.
func serveFleet(o serveOptions) {
	if o.n > 0xFFFF {
		fatalf("-fleet %d exceeds the 16-bit device id space", o.n)
	}
	var tstore *store.Store
	if o.storePath != "" {
		st, err := store.OpenOrCreate(o.storePath, store.Options{})
		if err != nil {
			fatalf("store: %v", err)
		}
		tstore = st
	}
	srv := o.newServer()
	f, restored, err := openFleet(o, srv, tstore)
	if err != nil {
		fatalf("%v", err)
	}
	if restored {
		st := f.Stat()
		fmt.Printf("sdbctl: restored %d devices (%d steps, %d quarantined) from %s\n",
			st.Devices, st.Steps, st.Quarantined, o.ckpt)
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("sdbctl: serving fleet of %d devices on %s (%d shards, batch %d, %gx time)\n",
		f.Len(), ln.Addr(), f.Stat().Shards, o.batch, o.speed)

	// Graceful drain on SIGINT/SIGTERM: stop admitting commands, finish
	// the in-flight tick, write the final checkpoint (when configured),
	// close, exit 0. A second signal during the drain kills the process
	// the default way.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		signal.Stop(sigc)
		fmt.Fprintf(os.Stderr, "sdbctl: %v: draining fleet\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := f.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "sdbctl: drain: %v\n", err)
			os.Exit(1)
		}
		if o.ckpt != "" {
			fmt.Fprintf(os.Stderr, "sdbctl: drained; final checkpoint at %s\n", o.ckpt)
		}
		if tstore != nil {
			if err := f.RecordErr(); err != nil {
				fmt.Fprintf(os.Stderr, "sdbctl: recording: %v\n", err)
			}
			if err := tstore.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "sdbctl: store: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "sdbctl: telemetry stored at %s\n", o.storePath)
		}
		os.Exit(0)
	}()

	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		var simT float64
		ticks := 0
		for range tick.C {
			srv.rec.Sample(simT)
			if f.Tick(int(o.speed)) == 0 {
				fmt.Fprintln(os.Stderr, "sdbctl: fleet traces drained; serving final state")
				if tstore != nil {
					if err := tstore.Sync(); err != nil {
						fmt.Fprintf(os.Stderr, "sdbctl: store sync: %v\n", err)
					}
				}
				return
			}
			simT += o.speed
			ticks++
			// Telemetry durability rides the checkpoint cadence: recorded
			// pages are committed in batches, not per tick.
			if tstore != nil && ticks%10 == 0 {
				if err := tstore.Sync(); err != nil {
					fmt.Fprintf(os.Stderr, "sdbctl: store sync: %v\n", err)
				}
			}
		}
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			fatalf("%v", err)
		}
		go func() {
			defer conn.Close()
			if err := f.Serve(conn); err != nil {
				fmt.Fprintf(os.Stderr, "sdbctl: serve: %v\n", err)
			}
		}()
	}
}

// openFleet builds the served fleet on srv's registry, with srv's
// provisioner as the fleet's Provision hook: restored from o.ckpt when
// that file exists, otherwise provisioned fresh (ids 0..o.n-1, or
// device 0 alone when o.n is 0). A restored device is therefore rebuilt
// exactly as it was first built. The pool has at most one shard per
// device: a shard with no device only idles and exports empty series.
func openFleet(o serveOptions, srv *fleetServer, tstore *store.Store) (f *fleet.Fleet, restored bool, err error) {
	fcfg := fleet.Config{
		Shards: min(o.shards, max(o.n, 1)), Batch: o.batch, Obs: srv.reg,
		Checkpoint: o.ckpt, CheckpointEvery: o.every, Provision: srv.provision,
		Record: tstore, RecordEvery: o.recEvery, Rules: o.rules,
	}
	if o.ckpt != "" {
		if _, err := os.Stat(o.ckpt); err == nil {
			f, err := fleet.RestoreFile(o.ckpt, fcfg)
			if err != nil {
				return nil, false, fmt.Errorf("restore %s: %w (start with the build and flags that wrote it, or remove the file to start afresh)", o.ckpt, err)
			}
			return f, true, nil
		}
	}
	f = fleet.New(fcfg)
	for i := 0; i < max(o.n, 1); i++ {
		id := uint16(i)
		cfg, err := srv.provision(id)
		if err == nil {
			err = f.Add(id, cfg)
		}
		if err != nil {
			f.Close()
			return nil, false, fmt.Errorf("device %d: %w", id, err)
		}
	}
	return f, false, nil
}

// fleetLoadLevels is how many distinct loads a served fleet draws:
// device id's load is level id%fleetLoadLevels.
const fleetLoadLevels = 7

// fleetServer is what a server provisions its devices from.
type fleetServer struct {
	// reg is the server's own registry (fleet.Config.Obs), sampled by
	// rec. It is not the process default, so only a device built to
	// report into it does: -fleet devices stay uninstrumented, which is
	// what lets every shard step them on its batch
	// engine.
	reg *obs.Registry
	// rec is device 0's recorder over reg.
	rec *ts.Recorder
	// traces are the constant loads, one per level, built once and
	// shared read-only by every device.
	traces [fleetLoadLevels]*workload.Trace

	// cells is set on a one-device server (serve without -fleet):
	// device 0 is then these library cells at full charge under the
	// load trace one, with the watchdog armed, and its firmware,
	// runtime and emulator all report into reg.
	cells    []string
	one      *workload.Trace
	watchdog float64
}

func newFleetServer(loadW, speed, durS float64) *fleetServer {
	reg := obs.NewRegistry()
	s := &fleetServer{reg: reg, rec: ts.NewRecorder(reg, ts.Config{StepS: speed})}
	for l := range s.traces {
		w := loadW * (0.8 + 0.4*float64(l)/fleetLoadLevels)
		s.traces[l] = workload.Constant(fmt.Sprintf("load-%d", l), w, durS, 1)
	}
	return s
}

// newServer builds the provisioner o asks for: the fleet's with -fleet
// N, else the one-device server's.
func (o serveOptions) newServer() *fleetServer {
	if o.n > 0 {
		return newFleetServer(o.loadW, o.speed, o.durS)
	}
	reg := obs.NewRegistry()
	return &fleetServer{
		reg: reg, rec: ts.NewRecorder(reg, ts.Config{StepS: o.speed}),
		cells: strings.Split(o.cells, ","), watchdog: o.watchdog,
		one: workload.Constant("load", o.loadW, o.durS, 1),
	}
}

// provision builds device id; it doubles as the fleet's Provision hook,
// so a restored device is rebuilt exactly as it was first built. No
// device records a per-step series (emulator.NoSeries): nothing reads
// a served device's Result, the recorder and the store hold its
// history, and its memory stays flat however long it runs.
func (s *fleetServer) provision(id uint16) (emulator.Config, error) {
	if s.cells != nil {
		if id != 0 {
			return emulator.Config{}, fmt.Errorf("a one-device server hosts device 0 only")
		}
		sys, err := sdb.NewSystem(sdb.SystemConfig{Cells: s.cells, Runtime: core.Options{Obs: s.reg}})
		if err != nil {
			return emulator.Config{}, err
		}
		if s.watchdog > 0 {
			sys.Controller.SetWatchdog(s.watchdog)
		}
		sys.Controller.SetRecorder(s.rec)
		return emulator.Config{
			Controller: sys.Controller, Runtime: sys.Runtime, Trace: s.one,
			PolicyEveryS: 60, RecordEveryS: emulator.NoSeries, Obs: s.reg,
		}, nil
	}
	soc := 0.4 + 0.6*float64(id%50)/50
	st, err := emulator.NewStack(soc, core.Options{},
		battery.MustByName("QuickCharge-2000"),
		battery.MustByName("Standard-2000"))
	if err != nil {
		return emulator.Config{}, err
	}
	cfg := emulator.Config{
		Controller:   st.Controller,
		Trace:        s.traces[id%fleetLoadLevels],
		PolicyEveryS: 60,
		RecordEveryS: emulator.NoSeries,
	}
	if id%3 == 0 {
		cfg.Runtime = st.Runtime
	}
	if id == 0 {
		st.Controller.SetRecorder(s.rec)
	}
	return cfg, nil
}

func parseRatios(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad ratio %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func must(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "sdbctl: "+format+"\n", args...)
	os.Exit(1)
}
