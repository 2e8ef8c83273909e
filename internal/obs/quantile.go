package obs

import (
	"math"
	"strconv"
	"strings"
)

// Quantile estimates the q-quantile (q in [0,1]) of the observations
// recorded so far, interpolating linearly within the bucket that holds
// the target rank. The estimate carries the usual fixed-bucket caveats:
// it is exact at bucket boundaries, linear in between, and observations
// in the +Inf bucket clamp to the last finite bound (there is no upper
// edge to interpolate toward). Returns NaN when the histogram is empty,
// q is out of range, or the receiver is nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	nb := len(h.bounds) + 1
	cum := make([]float64, nb)
	var c int64
	for i := 0; i < nb; i++ {
		c += h.counts[i].Load()
		cum[i] = float64(c)
	}
	return QuantileFromBuckets(h.bounds, cum, q)
}

// QuantileFromBuckets estimates the q-quantile from cumulative bucket
// counts: bounds holds the finite upper edges (strictly increasing) and
// cum the cumulative count at each edge plus a final entry for the
// implicit +Inf bucket (len(cum) == len(bounds)+1). This is the shared
// interpolation behind Histogram.Quantile and FamilyQuantile (sdbctl's
// p50/p99 lines over parsed expositions). Returns NaN on empty data,
// malformed inputs, or q outside [0,1].
func QuantileFromBuckets(bounds []float64, cum []float64, q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) || len(cum) != len(bounds)+1 {
		return math.NaN()
	}
	total := cum[len(cum)-1]
	if total <= 0 {
		return math.NaN()
	}
	rank := q * total
	var prevCum, lower float64
	if len(bounds) > 0 {
		// The first bucket interpolates from 0 (or from the first bound's
		// sign-appropriate floor); using 0 as the lower edge matches the
		// convention that observations are non-negative durations/counts.
		lower = math.Min(0, bounds[0])
	}
	for i, b := range bounds {
		if cum[i] < prevCum {
			return math.NaN() // not cumulative
		}
		if rank <= cum[i] {
			inBucket := cum[i] - prevCum
			if inBucket <= 0 {
				return b
			}
			frac := (rank - prevCum) / inBucket
			return lower + (b-lower)*frac
		}
		prevCum = cum[i]
		lower = b
	}
	// Target rank lands in the +Inf bucket: clamp to the last finite
	// bound (or NaN when every observation overflowed a bound-less
	// histogram).
	if len(bounds) == 0 {
		return math.NaN()
	}
	return bounds[len(bounds)-1]
}

// FamilyQuantile estimates the q-quantile of a parsed histogram family
// (as returned by ParseText or Snapshot): it reconstructs the bucket
// edges and cumulative counts from the `le="..."` samples. The second
// return is false when the family is not a histogram, holds no
// buckets, or is empty.
func FamilyQuantile(f Family, q float64) (float64, bool) {
	if f.Kind != KindHistogram {
		return 0, false
	}
	var bounds, cum []float64
	for _, s := range f.Samples {
		label, ok := strings.CutPrefix(s.Label, `le="`)
		if !ok || !strings.HasSuffix(label, `"`) {
			continue
		}
		label = strings.TrimSuffix(label, `"`)
		if label == "+Inf" {
			cum = append(cum, s.Value)
			continue
		}
		b, err := strconv.ParseFloat(label, 64)
		if err != nil {
			return 0, false
		}
		bounds = append(bounds, b)
		cum = append(cum, s.Value)
	}
	if len(cum) != len(bounds)+1 {
		return 0, false
	}
	v := QuantileFromBuckets(bounds, cum, q)
	if math.IsNaN(v) {
		return 0, false
	}
	return v, true
}
