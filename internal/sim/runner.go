package sim

import (
	"context"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"sdb/internal/battery"
	"sdb/internal/firmware"
)

// Runner executes experiments concurrently on a bounded worker pool.
// Every experiment (and every sweep point inside the heavy drivers) is
// an independent emulator run, so the batch parallelizes cleanly; the
// results slice always comes back in input order, and each driver's
// jobs share no mutable state, so the tables are byte-identical to
// running the drivers serially.
//
// The zero value is ready to use: GOMAXPROCS workers, no progress
// callback.
type Runner struct {
	// Workers bounds the number of experiments in flight; <= 0 means
	// GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives an Event as each job starts and
	// finishes. Callbacks are serialized; no locking is needed inside.
	Progress func(Event)
}

// Event is one progress notification.
type Event struct {
	// ID names the experiment.
	ID string
	// Done distinguishes job completion from job start.
	Done bool
	// Err is the job's error (Done events only).
	Err error
	// Wall is the job's wall-clock time (Done events only).
	Wall time.Duration
	// Completed and Total count finished jobs and batch size.
	Completed, Total int
}

// JobResult is one experiment's outcome.
type JobResult struct {
	Experiment Experiment
	Table      *Table
	Err        error
	// Wall is the job's wall-clock time.
	Wall time.Duration
	// Steps counts the firmware enforcement steps observed process-wide
	// during the job's run window. With one worker this attributes the
	// job exactly; with several it includes steps from overlapping jobs
	// and is useful as a throughput signal, not a per-job cost.
	Steps int64
}

// BatchResult summarizes a Runner.Run call.
type BatchResult struct {
	// Jobs holds one result per input experiment, in input order.
	Jobs []JobResult
	// Wall is the whole batch's wall-clock time.
	Wall time.Duration
	// Steps is the total number of firmware enforcement steps executed
	// during the batch (exact: sampled from the process-wide counter).
	Steps int64
	// Workers is the pool size actually used.
	Workers int
}

// FirstErr returns the first failed job's error in input order, or nil.
func (b *BatchResult) FirstErr() error {
	for _, j := range b.Jobs {
		if j.Err != nil {
			return j.Err
		}
	}
	return nil
}

// Fprint renders every table in input order, skipping failed jobs.
func (b *BatchResult) Fprint(w io.Writer) error {
	for _, j := range b.Jobs {
		if j.Err != nil || j.Table == nil {
			continue
		}
		if err := j.Table.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the experiments and returns their results in input
// order. Per-job failures are recorded in the corresponding JobResult
// rather than aborting the batch. When ctx is canceled, jobs not yet
// started are marked with ctx.Err(); jobs already in flight run to
// completion (drivers with internal sweeps stop at their next sweep
// boundary).
func (r *Runner) Run(ctx context.Context, exps []Experiment) *BatchResult {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	if workers < 1 {
		workers = 1
	}

	batch := &BatchResult{
		Jobs:    make([]JobResult, len(exps)),
		Workers: workers,
	}
	// Longest-job-first scheduling: starting the slow class early
	// shortens the batch makespan without affecting output order, which
	// is fixed by the results slice.
	order := make([]int, len(exps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return exps[order[a]].Cost > exps[order[b]].Cost
	})

	var (
		progressMu sync.Mutex
		completed  int
	)
	emit := func(ev Event) {
		if r.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		if ev.Done {
			completed++
		}
		ev.Completed = completed
		ev.Total = len(exps)
		r.Progress(ev)
	}

	// Steps are counted at two layers: full-stack experiments step cells
	// through the PMIC, while rig and battery-direct drivers (cycler
	// protocols, aging sweeps) step cells bare and publish bulk counts to
	// the battery package. Summing both deltas covers every experiment.
	totalSteps := func() int64 { return firmware.TotalSteps() + battery.TotalSteps() }
	start := time.Now()
	stepsBefore := totalSteps()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				e := exps[i]
				if err := ctx.Err(); err != nil {
					batch.Jobs[i] = JobResult{Experiment: e, Err: err}
					emit(Event{ID: e.ID, Done: true, Err: err})
					continue
				}
				emit(Event{ID: e.ID})
				jobStart := time.Now()
				jobSteps := totalSteps()
				tab, err := e.Run(ctx)
				res := JobResult{
					Experiment: e,
					Table:      tab,
					Err:        err,
					Wall:       time.Since(jobStart),
					Steps:      totalSteps() - jobSteps,
				}
				batch.Jobs[i] = res
				emit(Event{ID: e.ID, Done: true, Err: err, Wall: res.Wall})
			}
		}()
	}
	for _, i := range order {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	batch.Wall = time.Since(start)
	batch.Steps = totalSteps() - stepsBefore
	return batch
}
