// Package workload models the power-draw side of the SDB experiments:
// time-series power traces (the paper instruments its tablet, phone,
// and watch at 100 Hz and feeds the draw into the emulator), trace
// generators for the Section 5 scenarios, device component power
// profiles, and the Intel-style three-level CPU turbo model used by
// the Section 5.1 discharging study.
package workload

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Trace is a uniformly sampled power-draw time series. Load is the
// system power draw in watts; External is the available external
// supply power in watts (zero while unplugged). External may be nil
// when the scenario never plugs in.
//
// A trace is written only while it is built (the generators, Scale,
// Resample and ReadCSV fill their result before returning it) and is
// immutable once an emulation holds it: machines share a trace across
// goroutines, and the Validate result and the hash Hash derives from
// it are computed once and never refreshed. A Trace must not be copied
// after first use.
type Trace struct {
	Name     string
	DT       float64 // sample period, seconds
	Load     []float64
	External []float64

	mu       sync.Mutex // guards the memos below
	checked  bool       // Validate has run; checkErr is its result
	checkErr error      // memoized Validate result
	hashed   bool       // Hash has run; hash is its state before the stride
	hash     uint64
}

// Validate checks structural invariants. The first call scans the
// samples and memoizes the result, error included, for every later
// call: fleet machines built on one shared trace check it once, not
// once each. Safe for concurrent use.
func (tr *Trace) Validate() error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if !tr.checked {
		tr.checkErr, tr.checked = tr.validate(), true
	}
	return tr.checkErr
}

func (tr *Trace) validate() error {
	switch {
	case tr.Name == "":
		return errors.New("workload: trace needs a name")
	case !(tr.DT > 0 && tr.DT <= math.MaxFloat64):
		return fmt.Errorf("workload: trace %s: DT %g must be positive and finite", tr.Name, tr.DT)
	case len(tr.Load) == 0:
		return fmt.Errorf("workload: trace %s is empty", tr.Name)
	case tr.External != nil && len(tr.External) != len(tr.Load):
		return fmt.Errorf("workload: trace %s: %d load vs %d external samples",
			tr.Name, len(tr.Load), len(tr.External))
	}
	// One comparison pair per sample rejects negatives, NaN (every
	// comparison with NaN is false) and ±Inf; -0 passes, as before.
	for i, w := range tr.Load {
		if !(w >= 0 && w <= math.MaxFloat64) {
			return fmt.Errorf("workload: trace %s: bad load sample %d: %g", tr.Name, i, w)
		}
	}
	for i, w := range tr.External {
		if !(w >= 0 && w <= math.MaxFloat64) {
			return fmt.Errorf("workload: trace %s: bad external sample %d: %g", tr.Name, i, w)
		}
	}
	return nil
}

// Len returns the number of samples.
func (tr *Trace) Len() int { return len(tr.Load) }

// Duration returns the trace length in seconds.
func (tr *Trace) Duration() float64 { return float64(len(tr.Load)) * tr.DT }

// At returns the load and external power at time t (clamping to the
// trace bounds).
func (tr *Trace) At(t float64) (loadW, externalW float64) {
	if len(tr.Load) == 0 {
		return 0, 0
	}
	i := int(t / tr.DT)
	if i < 0 {
		i = 0
	}
	if i >= len(tr.Load) {
		i = len(tr.Load) - 1
	}
	return tr.Sample(i)
}

// Sample returns the load and external power of sample k by direct
// index — the O(1) form the emulator's step loop uses instead of
// float-time At. k must be in [0, Len()).
func (tr *Trace) Sample(k int) (loadW, externalW float64) {
	loadW = tr.Load[k]
	if tr.External != nil {
		externalW = tr.External[k]
	}
	return loadW, externalW
}

// Hash returns a 64-bit FNV-1a hash of everything an emulation draws
// from the trace, followed by a recording stride: DT, the Load and
// External sample counts (External's is 0 when it is absent), every
// Load and External sample bit for bit, then stride. A checkpoint
// carries it so that a restore over a different trace or stride is
// refused. The trace's part is computed on the first call and shared
// by every later one, whatever the stride. Safe for concurrent use.
func (tr *Trace) Hash(stride int) uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if !tr.hashed {
		h := fnvMix(fnvMix(fnvOffset, math.Float64bits(tr.DT)), uint64(len(tr.Load)))
		h = fnvMix(h, uint64(len(tr.External)))
		for _, samples := range [2][]float64{tr.Load, tr.External} {
			for _, w := range samples {
				h = fnvMix(h, math.Float64bits(w))
			}
		}
		tr.hash, tr.hashed = h, true
	}
	return fnvMix(tr.hash, uint64(stride))
}

// fnvOffset is FNV-1a's 64-bit offset basis.
const fnvOffset = 14695981039346656037

// fnvMix feeds the eight little-endian bytes of v through FNV-1a.
func fnvMix(h, v uint64) uint64 {
	for range 8 {
		h ^= v & 0xff
		h *= 1099511628211 // the 64-bit FNV prime
		v >>= 8
	}
	return h
}

// EnergyJ integrates the load over the trace.
func (tr *Trace) EnergyJ() float64 {
	var sum float64
	for _, w := range tr.Load {
		sum += w
	}
	return sum * tr.DT
}

// PeakW returns the largest load sample.
func (tr *Trace) PeakW() float64 {
	var peak float64
	for _, w := range tr.Load {
		if w > peak {
			peak = w
		}
	}
	return peak
}

// MeanW returns the mean load.
func (tr *Trace) MeanW() float64 {
	if len(tr.Load) == 0 {
		return 0
	}
	return tr.EnergyJ() / tr.Duration()
}

// Slice returns the sub-trace covering [from, to) seconds.
func (tr *Trace) Slice(from, to float64) (*Trace, error) {
	i := int(from / tr.DT)
	j := int(to / tr.DT)
	if i < 0 || j > len(tr.Load) || i >= j {
		return nil, fmt.Errorf("workload: slice [%g, %g) out of bounds for %s", from, to, tr.Name)
	}
	out := &Trace{Name: tr.Name + "-slice", DT: tr.DT, Load: tr.Load[i:j]}
	if tr.External != nil {
		out.External = tr.External[i:j]
	}
	return out, nil
}

// Scale returns a copy with every load sample multiplied by k.
func (tr *Trace) Scale(k float64) *Trace {
	out := &Trace{Name: tr.Name, DT: tr.DT, Load: make([]float64, len(tr.Load))}
	for i, w := range tr.Load {
		out.Load[i] = w * k
	}
	if tr.External != nil {
		out.External = append([]float64(nil), tr.External...)
	}
	return out
}

// Concat appends another trace (same DT) after this one.
func (tr *Trace) Concat(other *Trace) (*Trace, error) {
	if tr.DT != other.DT {
		return nil, fmt.Errorf("workload: concat DT mismatch %g vs %g", tr.DT, other.DT)
	}
	out := &Trace{
		Name: tr.Name + "+" + other.Name,
		DT:   tr.DT,
		Load: append(append([]float64(nil), tr.Load...), other.Load...),
	}
	if tr.External != nil || other.External != nil {
		out.External = make([]float64, 0, len(out.Load))
		out.External = appendOrZeros(out.External, tr.External, len(tr.Load))
		out.External = appendOrZeros(out.External, other.External, len(other.Load))
	}
	return out, nil
}

func appendOrZeros(dst, src []float64, n int) []float64 {
	if src != nil {
		return append(dst, src...)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, 0)
	}
	return dst
}

// Resample returns a copy of the trace at a new sample period,
// averaging (downsampling) or holding (upsampling) within each new
// interval so energy is preserved.
func (tr *Trace) Resample(newDT float64) (*Trace, error) {
	if newDT <= 0 {
		return nil, fmt.Errorf("workload: resample dt %g must be positive", newDT)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	n := int(math.Round(tr.Duration() / newDT))
	if n < 1 {
		return nil, fmt.Errorf("workload: resample to %g s collapses the %g s trace", newDT, tr.Duration())
	}
	out := &Trace{Name: tr.Name, DT: newDT, Load: make([]float64, n)}
	if tr.External != nil {
		out.External = make([]float64, n)
	}
	for k := 0; k < n; k++ {
		from := float64(k) * newDT
		to := from + newDT
		i0 := int(from / tr.DT)
		i1 := int(math.Ceil(to / tr.DT))
		if i1 > tr.Len() {
			i1 = tr.Len()
		}
		if i0 >= i1 {
			i0 = tr.Len() - 1
			i1 = tr.Len()
		}
		var sumL, sumE float64
		for i := i0; i < i1; i++ {
			sumL += tr.Load[i]
			if tr.External != nil {
				sumE += tr.External[i]
			}
		}
		cnt := float64(i1 - i0)
		out.Load[k] = sumL / cnt
		if out.External != nil {
			out.External[k] = sumE / cnt
		}
	}
	return out, nil
}
