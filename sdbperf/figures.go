package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"sdb/internal/sim"
)

// figures.sha256 holds the SHA-256 of every experiment's rendered
// table, one "<digest>  <id>" line each, as printed by -digests. The
// tables are deterministic, so every pass of every run must match.
//
//go:embed figures.sha256
var committedDigests string

func parseDigests(text string) (map[string]string, error) {
	out := map[string]string{}
	for i, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
			continue
		case len(f) != 2 || len(f[0]) != sha256.Size*2:
			return nil, fmt.Errorf("figures.sha256 line %d: want \"<sha256>  <id>\", got %q", i+1, line)
		}
		out[f[1]] = f[0]
	}
	return out, nil
}

func tableDigest(tab *sim.Table) (string, error) {
	h := sha256.New()
	if err := tab.Fprint(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// printDigests regenerates the figures.sha256 content from one pass.
func printDigests(w io.Writer) error {
	batch := (&sim.Runner{Workers: 1}).Run(context.Background(), sim.All())
	for _, j := range batch.Jobs {
		if j.Err != nil {
			return fmt.Errorf("%s: %w", j.Experiment.ID, j.Err)
		}
		d, err := tableDigest(j.Table)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s  %s\n", d, j.Experiment.ID)
	}
	return nil
}

// figuresPass is one serial regeneration of the selected experiments.
type figuresPass struct {
	wall    time.Duration
	steps   int64
	mallocs uint64
	jobs    []sim.JobResult
}

func runFiguresPass(exps []sim.Experiment, tr *tracer) figuresPass {
	runner := &sim.Runner{Workers: 1}
	if tr.active() {
		started := map[string]time.Time{}
		runner.Progress = func(ev sim.Event) {
			if !ev.Done {
				started[ev.ID] = time.Now()
				return
			}
			tr.add(ev.ID, "experiment", laneMain, started[ev.ID], time.Now(), nil)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	batch := runner.Run(context.Background(), exps)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return figuresPass{wall: wall, steps: batch.Steps, mallocs: m1.Mallocs - m0.Mallocs, jobs: batch.Jobs}
}

// figuresLayer lists the per-layer metrics of the experiments:
// each experiment's share of a pass, the firmware steps a pass runs,
// and heap allocations per step.
func figuresLayer() []metricDef {
	var defs []metricDef
	for _, id := range sim.IDs() {
		defs = append(defs, metricDef{Name: "sim." + id + "_pct", Unit: "%"})
	}
	return append(defs,
		metricDef{Name: "sim.steps", Unit: "count"},
		metricDef{Name: "sim.allocs_per_step", Unit: "count"})
}

// runFigures is the paper reproduction: every registry experiment,
// serially, pass after pass. Three untimed passes (the first one cold)
// are the set-up; the timed passes follow until the window is spent.
// Every pass of every experiment must render its committed digest.
func runFigures(rc *runConfig, tr *tracer) (*measurement, error) {
	exps := sim.All()
	if rc.figureIDs != nil {
		exps = exps[:0]
		for _, id := range rc.figureIDs {
			e, ok := sim.ByID(id)
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q", id)
			}
			exps = append(exps, e)
		}
	}
	want := rc.digests
	if want == nil {
		var err error
		if want, err = parseDigests(committedDigests); err != nil {
			return nil, err
		}
	}

	m := newMeasurement()
	m.zero(fleetLayer)
	check := func(p figuresPass) {
		m.attempted++
		ok := true
		for _, j := range p.jobs {
			id := j.Experiment.ID
			if j.Err != nil {
				m.problem("%s: %v", id, j.Err)
				ok = false
				continue
			}
			got, err := tableDigest(j.Table)
			if err != nil {
				m.problem("%s: render: %v", id, err)
				ok = false
			} else if got != want[id] {
				m.problem("%s: table digest %s, want %s", id, got, want[id])
				ok = false
			}
		}
		if !ok {
			m.failed++
		}
	}

	var setups []float64
	for i := 0; i < 3; i++ {
		p := runFiguresPass(exps, nil)
		check(p)
		setups = append(setups, p.wall.Seconds())
	}

	var (
		passMS, tracedMS, plainMS []float64
		steps                     []float64
		wall                      time.Duration
		mallocs                   uint64
		expMS                     = map[string]float64{}
		tracedWall                time.Duration
	)
	window := seconds(rc.seconds)
	var last time.Duration
	for i := 0; i == 0 || keepGoing(wall, last, window); i++ {
		traced := rc.trace && i%2 == 1
		tr.set(traced)
		p := runFiguresPass(exps, tr)
		tr.set(false)
		check(p)
		logf("figures pass %d: %.3fs, traced %v", i, p.wall.Seconds(), traced)
		last = p.wall
		wall += p.wall
		mallocs += p.mallocs
		passMS = append(passMS, ms(p.wall))
		steps = append(steps, float64(p.steps))
		if traced {
			tracedMS = append(tracedMS, ms(p.wall))
			tracedWall += p.wall
			for _, j := range p.jobs {
				expMS[j.Experiment.ID] += ms(j.Wall)
			}
		} else {
			plainMS = append(plainMS, ms(p.wall))
		}
	}

	m.set("setup_s", "s", median(setups))
	m.set("steps_per_s", "1/s", sum(steps)/wall.Seconds())
	m.set("op.p50_ms", "ms", median(passMS))
	m.set("op_tail_ms", "ms", quantile(passMS, tailQuantile(len(passMS))))
	m.set("heap_mb", "MB", liveHeapMB())

	m.zero(figuresLayer())
	for id, t := range expMS {
		m.set("sim."+id+"_pct", "%", 100*t/ms(tracedWall))
	}
	m.set("sim.steps", "count", median(steps))
	if s := sum(steps); s > 0 {
		m.set("sim.allocs_per_step", "count", float64(mallocs)/s)
	}
	m.set("op.count", "count", float64(len(passMS)))
	m.set("trace.overhead_pct", "%", overheadPct(tracedMS, plainMS))
	return m, nil
}

// keepGoing decides whether a timed loop starts another unit of work
// after measuring elapsed so far: it stops once the window would be
// overrun by more than half a unit, so a run measures close to its
// window whatever the unit length.
func keepGoing(elapsed, last, window time.Duration) bool {
	return elapsed+last/2 < window
}

// overheadPct compares the median latency of traced units with that of
// untraced units of the same run.
func overheadPct(traced, plain []float64) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return 100 * (median(traced)/median(plain) - 1)
}

// liveHeapMB is the heap still in use after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
