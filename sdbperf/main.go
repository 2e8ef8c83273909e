// Command sdbperf is the repository benchmark: four workloads that
// cover what users of this system wait on, each printing every metric
// named in BENCHMARK.json with its unit, and checking that the program's
// outputs are correct while it measures.
//
// Usage, from the repository root (sdbperf/run.sh builds and runs it):
//
//	sdbperf -workload <name> -seed <n> -seconds <s> -trace <0|1> [-out run.json]
//	sdbperf -compare 'base/*.json' -against 'new/*.json'
//	sdbperf -digests > sdbperf/figures.sha256
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// the end-to-end ones; with -trace 1 the same workload runs with spans
// kept in memory, and the metrics are the per-layer ones, including the
// layer ledger and trace.overhead_pct. The traced run also writes its
// spans as Chrome trace-event JSON under the build directory. A failed
// check prints correct=false and exits 1.
//
// # Workloads
//
// Everything runs in one process sized for a 2-core host: the fleet has
// 2 shards, 64-step slices and 60 sim-seconds per tick; the load
// generator uses at most 2 connections and 2 goroutines of its own.
//
//   - figures: the paper reproduction, all 28 registry experiments
//     serially. Set-up is three untimed passes (the first one cold);
//     then timed passes fill the window. Each pass's tables must match
//     figures.sha256. The seed is unused: the tables are deterministic.
//   - fleet-drain: 10,000 devices, 1 sim-hour traces, series every 60 s,
//     nothing else on: the stepping path alone (batch kernel, firmware
//     fast segment, emulator batches, shard pool). Fresh fleets are built
//     and drained until the window is spent.
//   - fleet-full: 2,000 devices at serve provisioning (series every step),
//     20 sim-minute traces, with 4 alert rules, store recording every 2
//     ticks, a checkpoint every 10 ticks, a store sync every 10 ticks, and
//     one connection carrying a fleet-wide metrics subscription and an
//     alerts subscription, read continuously. Unpaced, fresh fleets until
//     the window is spent: every barrier phase does real work.
//   - fleet-serve: fleet-full's stack with sdbctl serve's defaults
//     (recording every tick), paced at one tick per wall second, beside a
//     closed-loop operator on a second connection: 60% status reads, 20%
//     ratio reads, 20% discharge writes to devices with id = 1 (mod 4),
//     1 ms think time. The command plane next to a live barrier.
//
// The seed picks each device's initial charge and load and the
// operator's command sequence. Checks in every run: each device runs
// every step with no error or quarantine; 16 seed-chosen devices that
// are never written to are replayed alone through emulator.Run and must
// match their fleet Result bit for bit; every push frame the ledger owes
// arrives and no more; recording and checkpointing report no error.
// attempted counts the operations run (passes, ticks, commands) and
// failed the ones that failed.
//
// # End-to-end metrics
//
//   - setup_s: median of the run's set-ups: five fleet builds (with the
//     store opened and subscriptions made), or the three figures warm-up
//     passes.
//   - steps_per_s: firmware steps per wall second of the measured window.
//     fleet-serve is paced, so it reads how well the fleet keeps up.
//   - op_tail_ms: tail latency of the operation a user waits on: a
//     figures pass, a fleet tick, an operator command (send to reply). It
//     is the highest percentile with at least ten samples beyond it, at
//     most p99: p99 for commands, about p96 for fleet ticks (checkpoint
//     ticks on fleet-full), the median for the dozen figures passes.
//   - heap_mb: live heap after a full GC at the end of the measured work.
//
// The median latency, op.p50_ms, and the sample count, op.count, are
// per-layer metrics: on the 2-core VM the benchmark was sized on, the
// median tick sat between a fast mode and a mode slowed by garbage
// collection or contention, and its spread over ten runs (quartile
// distance over median) reached 33%, past any bound a timing may have.
// The other timings spread 6-24% over four ten-run sets, with every
// workload drifting together between runs minutes apart, so their
// bound is the largest allowed, 25%.
//
// # Per-layer metrics
//
//   - The layer ledger (ledger.go): ns and heap allocations per unit of
//     one public operation of each layer, from testing.Benchmark.
//   - Fleet: shares of the traced ticks' wall time spent stepping on the
//     busiest shard, in the barrier, recording, checkpointing and syncing
//     the store; shard imbalance; the share of wall time inside Tick; the
//     server's share of a command round trip and the write/read latency
//     ratio; per-episode counts that repeat exactly for a seed (pages
//     written, checkpoint bytes, push frames, alert transitions); push
//     drop and command error ratios.
//   - Figures: each large experiment's share of a pass, firmware steps
//     per pass, heap allocations per step.
//   - op.p50_ms and op.count: median latency and number of the
//     operations op_tail_ms is taken from.
//   - trace.overhead_pct: median latency of traced against untraced
//     units (passes, episodes, paced ticks) of the same run.
//
// A workload that never calls into a layer reports that layer's metrics
// as 0.
//
// # Findings recorded while sizing the workloads
//
// At serve provisioning each device keeps its whole per-step series, so
// heap and checkpoint cost grow with elapsed sim time, not only with
// devices: a checkpoint re-encodes every device's full history. 2,000
// devices over 30 sim-minutes peaked at 1.1 GB resident, over 20 at
// 0.7 GB, so fleet-full and fleet-serve use 20-minute traces.
// An open-loop command generator on 2 cores measured the scheduler, not
// the program: its latency followed the timer wake-up and the preemption
// quantum while both shards stepped, so the operator is closed-loop.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// defaultSeed is the seed a run uses without -seed.
const defaultSeed = 1

// runConfig is one run's settings. The fields after workDir exist for
// toy-scale tests; zero values give the committed workloads.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string // scratch files; removed when the run ends

	devices   int               // overrides the workload's device count
	figureIDs []string          // restricts figures to these experiments
	digests   map[string]string // replaces figures.sha256
	benchtime time.Duration     // per ledger operation; 0 means 100ms
}

var workloads = map[string]func(*runConfig, *tracer) (*measurement, error){
	"figures":     runFigures,
	"fleet-drain": runFleet,
	"fleet-full":  runFleet,
	"fleet-serve": runFleet,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sdbperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: figures, fleet-drain, fleet-full or fleet-serve")
		seed     = fs.Int64("seed", defaultSeed, "input seed: device charge and load, command sequence, replayed devices")
		secs     = fs.Float64("seconds", 10, "length of the measured window")
		traceOn  = fs.Int("trace", 0, "1 runs with spans on and reports the per-layer metrics")
		specPath = fs.String("spec", "BENCHMARK.json", "benchmark definition: workloads, metric names, units, bounds")
		out      = fs.String("out", "", "also write the run record to this file (input to -compare)")
		buildDir = fs.String("build-dir", ".bench_build", "directory for scratch files and traces")
		base     = fs.String("compare", "", "glob of base run records: judge -against them and exit")
		against  = fs.String("against", "", "glob of new run records to judge")
		digests  = fs.Bool("digests", false, "print the figures table digests of this build and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "sdbperf: "+format+"\n", a...)
		return 1
	}
	if *digests {
		if err := printDigests(stdout); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return fail("%v", err)
	}
	if *base != "" || *against != "" {
		return runCompare(spec, *base, *against, stdout, stderr)
	}
	if _, ok := workloads[*name]; !ok || !spec.hasWorkload(*name) {
		fmt.Fprintf(stderr, "sdbperf: unknown workload %q\n", *name)
		return 2
	}
	if *secs <= 0 || *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(stderr, "sdbperf: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	rc := &runConfig{
		workload: *name,
		seed:     *seed,
		seconds:  *secs,
		trace:    *traceOn == 1,
		workDir:  filepath.Join(*buildDir, "work", fmt.Sprintf("%s-%d", *name, os.Getpid())),
	}
	rec, err := measure(spec, rc, filepath.Join(*buildDir, "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed)))
	if err != nil {
		return fail("%s: %v", *name, err)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fail("%v", err)
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

// runRecord is what -out writes: the result line plus what produced it.
type runRecord struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Problems []string `json:"problems,omitempty"`
	Result   result   `json:"result"`
}

// measure runs one workload and selects the metrics BENCHMARK.json
// names for the mode. Correctness problems are printed to stderr and
// reported in the result; an error means the benchmark itself failed.
func measure(spec *benchSpec, rc *runConfig, tracePath string) (*runRecord, error) {
	if err := os.MkdirAll(rc.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(rc.workDir)
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	m, err := workloads[rc.workload](rc, tr)
	if err != nil {
		return nil, err
	}
	defs := spec.EndToEnd
	if rc.trace {
		defs = spec.PerLayer
		bt := rc.benchtime
		if bt == 0 {
			bt = 100 * time.Millisecond
		}
		tr.set(true)
		if err := runLedger(m, filepath.Join(rc.workDir, "ledger"), bt, tr); err != nil {
			return nil, err
		}
		tr.set(false)
	}
	for _, p := range m.problems {
		logf("%s: check failed: %s", rc.workload, p)
	}
	res, err := m.result(defs)
	if err != nil {
		return nil, err
	}
	if rc.trace {
		if err := tr.writeChrome(tracePath, res.Metrics); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	return &runRecord{
		Workload: rc.workload, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace,
		Problems: m.problems, Result: res,
	}, nil
}

// logf reports progress on standard error; standard output carries
// only the result line.
func logf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "sdbperf: "+format+"\n", a...)
}
