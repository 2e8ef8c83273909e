// Command sdbbench regenerates the paper's tables and figures using
// the concurrent experiment engine in internal/sim.
//
// Usage:
//
//	sdbbench              # run every experiment (slow ones included)
//	sdbbench -fast        # skip the slow emulation/endurance runs
//	sdbbench -list        # list experiment ids with cost class
//	sdbbench -run id,...  # run specific experiments
//	sdbbench -j 4         # worker pool size (default GOMAXPROCS)
//	sdbbench -timeout 2m  # cancel experiments not started by then
//	sdbbench -plot        # additionally render ASCII charts
//	sdbbench -q           # suppress per-job progress lines
//
// Profiling and observability:
//
//	sdbbench -cpuprofile cpu.pb.gz          # CPU profile of the run
//	sdbbench -memprofile mem.pb.gz          # heap profile at exit
//	sdbbench -fast -metrics METRICS.txt     # dump aggregated run metrics at exit
//	sdbbench -fast -trace -                 # dump trace events to stdout at exit
//
// Timing and allocation figures, for the tables and for the fleet, come
// from the repository benchmark in sdbperf/ (sdbperf/run.sh), not from
// this command.
//
// -metrics and -trace enable the observability plane (every stack the
// experiments build reports into one process-wide registry) and dump
// it at exit; without them runs are uninstrumented and byte-identical
// to prior releases.
//
// Experiments execute on a bounded worker pool; progress lines go to
// stderr as jobs start and finish, and the tables print to stdout in
// registry order — byte-identical to a serial (-j 1) run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"sdb/internal/obs"
	"sdb/internal/sim"
)

func main() {
	os.Exit(run())
}

// run holds the whole CLI so profile-stopping defers execute before the
// process exits (os.Exit in main would skip them).
func run() int {
	var (
		list       = flag.Bool("list", false, "list experiment ids and exit")
		fast       = flag.Bool("fast", false, "skip slow experiments")
		runIDs     = flag.String("run", "", "comma-separated experiment ids to run")
		plot       = flag.Bool("plot", false, "render numeric experiments as ASCII charts too")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "number of experiments to run in parallel")
		timeout    = flag.Duration("timeout", 0, "overall deadline (0 = none); pending jobs are canceled")
		quiet      = flag.Bool("q", false, "suppress progress lines")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		metricsOut = flag.String("metrics", "", `write aggregated run metrics (text exposition) to this file at exit ("-" = stdout)`)
		traceOut   = flag.String("trace", "", `write collected trace events to this file at exit ("-" = stdout)`)
	)
	flag.Parse()

	// Observability is opt-in: installing the process registry is what
	// turns instrumentation on in every stack the experiments build.
	// The dump runs deferred so it reports on every way out.
	if *metricsOut != "" || *traceOut != "" {
		obs.SetDefault(obs.NewRegistry())
		defer dumpObs(*metricsOut, *traceOut)
	}

	if *list {
		for _, e := range sim.All() {
			fmt.Printf("%-20s %-5s %s\n", e.ID, e.Cost, e.Title)
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdbbench: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sdbbench: cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sdbbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sdbbench: memprofile: %v\n", err)
			}
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var selected []sim.Experiment
	if *runIDs != "" {
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := sim.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "sdbbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	} else if *fast {
		selected = sim.Fast()
	} else {
		selected = sim.All()
	}

	runner := &sim.Runner{Workers: *jobs}
	if !*quiet {
		runner.Progress = func(ev sim.Event) {
			switch {
			case !ev.Done:
				fmt.Fprintf(os.Stderr, "sdbbench: [%d/%d] %s started\n", ev.Completed, ev.Total, ev.ID)
			case ev.Err != nil:
				fmt.Fprintf(os.Stderr, "sdbbench: [%d/%d] %s FAILED after %v: %v\n",
					ev.Completed, ev.Total, ev.ID, ev.Wall.Round(time.Millisecond), ev.Err)
			default:
				fmt.Fprintf(os.Stderr, "sdbbench: [%d/%d] %s done in %v\n",
					ev.Completed, ev.Total, ev.ID, ev.Wall.Round(time.Millisecond))
			}
		}
	}

	batch := runner.Run(ctx, selected)
	failed := 0
	for _, j := range batch.Jobs {
		if j.Err != nil {
			fmt.Fprintf(os.Stderr, "sdbbench: %s: %v\n", j.Experiment.ID, j.Err)
			failed++
			continue
		}
		if err := j.Table.Fprint(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "sdbbench: print %s: %v\n", j.Experiment.ID, err)
			return 1
		}
		if *plot {
			if chart, err := sim.DefaultChart().Render(j.Table, nil); err == nil {
				fmt.Println(chart)
			}
		}
		fmt.Println()
	}
	stepsPerSec := float64(batch.Steps) / batch.Wall.Seconds()
	fmt.Fprintf(os.Stderr, "sdbbench: %d experiments in %v with %d workers (%d firmware steps, %.3g steps/s)\n",
		len(batch.Jobs)-failed, batch.Wall.Round(time.Millisecond), batch.Workers, batch.Steps, stepsPerSec)
	if failed > 0 {
		return 1
	}
	return 0
}

// dumpObs writes the process registry and trace ring at exit.
func dumpObs(metricsPath, tracePath string) {
	reg := obs.Default()
	if reg == nil {
		return
	}
	write := func(path, text string) {
		if path == "-" {
			fmt.Print(text)
			return
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sdbbench: %v\n", err)
		}
	}
	if metricsPath != "" {
		write(metricsPath, reg.Text())
	}
	if tracePath != "" {
		var sb strings.Builder
		for _, ev := range reg.Tracer().Events() {
			sb.WriteString(ev.String())
			sb.WriteByte('\n')
		}
		write(tracePath, sb.String())
	}
}
