package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunnerGoldenAgainstSerial is the golden-output regression test:
// the shared run's tables must be byte-identical to calling each fast
// driver directly, one after another.
func TestRunnerGoldenAgainstSerial(t *testing.T) {
	for _, j := range registryRun().Jobs {
		if j.Experiment.Slow() {
			continue
		}
		tab, err := j.Experiment.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", j.Experiment.ID, err)
		}
		if !bytes.Equal(rendered(tab), rendered(j.Table)) {
			t.Errorf("%s: the runner's table differs from the serial run's", j.Experiment.ID)
		}
	}
}

// TestRunnerDeterministicAcrossPoolSizes: any pool size produces the
// same bytes, and results come back in input order.
func TestRunnerDeterministicAcrossPoolSizes(t *testing.T) {
	subset := Fast()[:6]
	var ref []byte
	for _, workers := range []int{1, 2, 8} {
		r := &Runner{Workers: workers}
		batch := r.Run(context.Background(), subset)
		if err := batch.FirstErr(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, j := range batch.Jobs {
			if j.Experiment.ID != subset[i].ID {
				t.Fatalf("workers=%d: job %d is %s, want %s", workers, i, j.Experiment.ID, subset[i].ID)
			}
		}
		var out bytes.Buffer
		if err := batch.Fprint(&out); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out.Bytes()
		} else if !bytes.Equal(ref, out.Bytes()) {
			t.Fatalf("workers=%d output differs from workers=1", workers)
		}
	}
}

// TestRunnerRecordsPerJobErrors: one failing experiment must not abort
// the batch or poison its neighbors.
func TestRunnerRecordsPerJobErrors(t *testing.T) {
	boom := errors.New("boom")
	exps := []Experiment{
		{ID: "ok-1", Run: serial(Table1)},
		{ID: "bad", Run: func(context.Context) (*Table, error) { return nil, boom }},
		{ID: "ok-2", Run: serial(Figure1a)},
	}
	r := &Runner{Workers: 2}
	batch := r.Run(context.Background(), exps)
	if !errors.Is(batch.FirstErr(), boom) {
		t.Fatalf("FirstErr = %v, want boom", batch.FirstErr())
	}
	if batch.Jobs[0].Err != nil || batch.Jobs[0].Table == nil {
		t.Errorf("job 0 poisoned: %+v", batch.Jobs[0].Err)
	}
	if !errors.Is(batch.Jobs[1].Err, boom) {
		t.Errorf("job 1 err = %v", batch.Jobs[1].Err)
	}
	if batch.Jobs[2].Err != nil || batch.Jobs[2].Table == nil {
		t.Errorf("job 2 poisoned: %+v", batch.Jobs[2].Err)
	}
	var out strings.Builder
	if err := batch.Fprint(&out); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("Fprint skipped everything")
	}
}

// TestRunnerCancellation: a canceled context marks not-yet-started
// jobs with the context error instead of running them.
func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Runner{Workers: 2}
	batch := r.Run(ctx, Fast()[:4])
	for i, j := range batch.Jobs {
		if !errors.Is(j.Err, context.Canceled) {
			t.Errorf("job %d err = %v, want context.Canceled", i, j.Err)
		}
	}
}

// TestRunnerProgressEvents: every job emits a start and a done event,
// and the completed counter reaches the batch size.
func TestRunnerProgressEvents(t *testing.T) {
	subset := Fast()[:5]
	var starts, dones int
	lastCompleted := 0
	r := &Runner{
		Workers: 3,
		Progress: func(ev Event) {
			if ev.Total != len(subset) {
				t.Errorf("event total = %d, want %d", ev.Total, len(subset))
			}
			if ev.Done {
				dones++
				lastCompleted = ev.Completed
			} else {
				starts++
			}
		},
	}
	if err := r.Run(context.Background(), subset).FirstErr(); err != nil {
		t.Fatal(err)
	}
	if starts != len(subset) || dones != len(subset) {
		t.Errorf("starts = %d, dones = %d, want %d each", starts, dones, len(subset))
	}
	if lastCompleted != len(subset) {
		t.Errorf("final completed = %d, want %d", lastCompleted, len(subset))
	}
}

// TestRunnerCountsSteps: emulator-backed experiments must report
// firmware step activity through the batch counters.
func TestRunnerCountsSteps(t *testing.T) {
	e, ok := ByID("figure-13")
	if !ok {
		t.Fatal("figure-13 not registered")
	}
	r := &Runner{Workers: 1}
	batch := r.Run(context.Background(), []Experiment{e})
	if err := batch.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if batch.Steps <= 0 {
		t.Errorf("batch steps = %d, want > 0", batch.Steps)
	}
	if batch.Jobs[0].Steps <= 0 {
		t.Errorf("job steps = %d, want > 0", batch.Jobs[0].Steps)
	}
	if batch.Jobs[0].Wall <= 0 {
		t.Errorf("job wall = %v, want > 0", batch.Jobs[0].Wall)
	}
}

// TestForEachBoundsConcurrencyAndOrder: results land at their input
// index and the first (lowest-index) error wins.
func TestForEachBoundsConcurrencyAndOrder(t *testing.T) {
	const n = 64
	out := make([]int, n)
	var inFlight, peak atomic.Int64
	err := forEach(context.Background(), n, func(i int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		out[i] = i * i
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if p := peak.Load(); p < 2 {
		t.Logf("peak concurrency %d (single-core runner?)", p)
	}

	errA := errors.New("a")
	errB := errors.New("b")
	err = forEach(context.Background(), n, func(i int) error {
		switch i {
		case 3:
			return errB
		case 1:
			return errA
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("forEach err = %v, want lowest-index error %v", err, errA)
	}
}

// TestForEachStartsEveryItem: every item is in flight at once. Each
// item waits on a barrier that opens only once all n have started, so
// a pool smaller than n would leave the barrier shut; the shared
// deadline turns that into a failure instead of a hang.
func TestForEachStartsEveryItem(t *testing.T) {
	const n = 16
	var started sync.WaitGroup
	started.Add(n)
	all := make(chan struct{})
	go func() {
		started.Wait()
		close(all)
	}()
	deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := forEach(context.Background(), n, func(i int) error {
		started.Done()
		select {
		case <-all:
			return nil
		case <-deadline.Done():
			return fmt.Errorf("item %d: not all %d items started", i, n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForEachCanceledSkipsItems: with ctx already canceled no item
// body runs and the error is ctx's.
func TestForEachCanceledSkipsItems(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := forEach(ctx, 8, func(int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("forEach err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d items ran after cancellation", n)
	}
}

// TestForEachRetainsNothing: item goroutines park between calls, and a
// parked goroutine must not keep the last item it ran (and whatever
// that item captured: a driver's emulator stacks, its result slots)
// reachable.
func TestForEachRetainsNothing(t *testing.T) {
	const n = 4
	var freed atomic.Int64
	func() {
		slots := make([]*[1 << 16]byte, n)
		for i := range slots {
			slots[i] = new([1 << 16]byte)
			runtime.SetFinalizer(slots[i], func(*[1 << 16]byte) { freed.Add(1) })
		}
		if err := forEach(context.Background(), n, func(i int) error {
			slots[i][0] = byte(i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for freed.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d item-captured values still reachable after forEach", n-freed.Load(), n)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
