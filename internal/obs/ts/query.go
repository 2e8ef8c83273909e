package ts

// The derived-signal engine: every query runs over the trailing
// window of a recorded series. Windows are expressed in sim seconds
// and snap down to whole sample steps; a query needs at least two
// samples (one step) of history, and returns ok=false otherwise, so
// callers can distinguish "no data yet" from a zero signal.

// Rate returns the per-second rate of change of a series over the
// trailing windowS seconds: delta divided by the window's exact span.
// Meaningful for monotone kinds (counters, histogram buckets/counts),
// where it is the event rate; for gauges it is the slope.
func (r *Recorder) Rate(name string, windowS float64) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rateLocked(name, windowS)
}

func (r *Recorder) rateLocked(name string, windowS float64) (float64, bool) {
	s, ok := r.byName[name]
	if !ok {
		return 0, false
	}
	d, span, ok := s.delta(windowS)
	if !ok || span <= 0 {
		return 0, false
	}
	return d / span, true
}

// Delta returns the change of a series over the trailing windowS
// seconds. For monotone kinds this counts events in the window.
func (r *Recorder) Delta(name string, windowS float64) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deltaLocked(name, windowS)
}

func (r *Recorder) deltaLocked(name string, windowS float64) (float64, bool) {
	s, ok := r.byName[name]
	if !ok {
		return 0, false
	}
	d, _, ok := s.delta(windowS)
	return d, ok
}

// Latest returns a series' newest sample.
func (r *Recorder) Latest(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.latestLocked(name)
}

func (r *Recorder) latestLocked(name string) (float64, bool) {
	s, ok := r.byName[name]
	if !ok || s.n == 0 {
		return 0, false
	}
	return s.last(), true
}
