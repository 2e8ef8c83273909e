package sim

import (
	"context"
	"sync"
)

// forEach runs f(0) … f(n-1), each on its own goroutine, and blocks
// until all of them finish. Item results must be written into
// caller-owned slots indexed by i, which keeps output ordering
// deterministic no matter how the items are scheduled. The experiment
// drivers use this to fan their independent sweep points out across
// cores.
//
// No driver has more than 16 items, so starting them all at once
// costs a goroutine each and lets the scheduler time-slice them:
// no core idles while one worker runs a pool's last items (three equal
// items on two cores take 1.5 item-times, not 2).
//
// The returned error is the lowest-index failure, so a given input
// fails the same way on every run. An item whose goroutine starts after
// ctx is canceled skips f and records ctx.Err().
func forEach(ctx context.Context, n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		goItem(func() {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = f(i)
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// idle hands an item to a parked item goroutine.
var idle = make(chan func())

// goItem runs item on a parked goroutine, or on a new one when none is
// idle. Item goroutines park instead of exiting, for the life of the
// process: the runtime never frees a goroutine's descriptor, and one
// that exits on one core waits in that core's free list while the next
// fan-out, started from the other, allocates fresh ones. A fresh
// goroutine per item left ~50 dead descriptors behind a figures run
// (+23 KB, +15% of its live heap); parked, their number is the peak of
// items in flight.
func goItem(item func()) {
	select {
	case idle <- item:
	default:
		go park(item)
	}
}

// park runs item, then every item handed to it, forever. While it
// waits, no item it ran is reachable from it.
func park(item func()) {
	item()
	for item := range idle {
		item()
	}
}
