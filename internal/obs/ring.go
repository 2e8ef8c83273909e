package obs

// ring is a bounded FIFO: push appends, overwriting the oldest entry
// once the ring is full, and snapshot copies the live entries out
// oldest first. It counts the entries it overwrote. It does no locking;
// Tracer and AuditLog, its two owners, hold their own mutex around it.
type ring[T any] struct {
	buf     []T
	start   int // index of the oldest live entry
	n       int // live entries
	dropped uint64
}

// newRing returns a ring holding up to cap entries (minimum 1).
func newRing[T any](cap int) ring[T] {
	if cap < 1 {
		cap = 1
	}
	return ring[T]{buf: make([]T, cap)}
}

func (r *ring[T]) push(v T) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = v
		r.n++
		return
	}
	r.buf[r.start] = v
	r.start++
	if r.start == len(r.buf) {
		r.start = 0
	}
	r.dropped++
}

func (r *ring[T]) snapshot() []T {
	out := make([]T, r.n)
	for i := range out {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}
