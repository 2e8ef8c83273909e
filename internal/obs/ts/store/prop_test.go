package store

import (
	"math"
	"math/rand"
	"testing"

	"sdb/internal/obs/ts"
)

// genSeries appends a random series: power-of-two step (so grid times
// and bucket boundaries are exact binary floats and floor arithmetic
// is noise-free), random length, random gaps.
func genSeries(t *testing.T, s *Store, name string, rng *rand.Rand) ([]float64, []float64) {
	t.Helper()
	steps := []float64{0.25, 0.5, 1, 2, 4, 8}
	stepS := steps[rng.Intn(len(steps))]
	n := 20 + rng.Intn(400)
	var times, vals []float64
	tm := stepS * float64(rng.Intn(50))
	for i := 0; i < n; i++ {
		if rng.Intn(40) == 0 {
			tm += stepS * float64(2+rng.Intn(30)) // recording gap
		}
		v := (rng.Float64() - 0.5) * 2000
		if err := s.Append(name, ts.KindGauge, stepS, tm, v); err != nil {
			t.Fatalf("append %s: %v", name, err)
		}
		times = append(times, tm)
		vals = append(vals, v)
		tm += stepS
	}
	return times, vals
}

// refBuckets computes QueryDown's answer directly from the raw
// samples: one left-fold in time order per bucket.
func refBuckets(times, vals []float64, bucketS float64) []Bucket {
	var out []Bucket
	byIdx := map[int64]int{}
	for i, tm := range times {
		idx := bucketIdx(tm, bucketS)
		v := vals[i]
		if j, ok := byIdx[idx]; ok {
			b := &out[j]
			b.Count++
			if v < b.Min {
				b.Min = v
			}
			if v > b.Max {
				b.Max = v
			}
			b.Sum += v
		} else {
			byIdx[idx] = len(out)
			out = append(out, Bucket{T0: float64(idx) * bucketS, Count: 1, Min: v, Max: v, Sum: v})
		}
	}
	// Buckets come out in time order because appends are monotone.
	return out
}

func sameBuckets(t *testing.T, what string, got, want []Bucket, exactSum bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d buckets, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.T0 != w.T0 || g.Count != w.Count || g.Min != w.Min || g.Max != w.Max {
			t.Fatalf("%s bucket %d: got %+v, want %+v", what, i, g, w)
		}
		if exactSum {
			if math.Float64bits(g.Sum) != math.Float64bits(w.Sum) {
				t.Fatalf("%s bucket %d sum: got %x, want %x", what, i, math.Float64bits(g.Sum), math.Float64bits(w.Sum))
			}
		} else if math.Abs(g.Sum-w.Sum) > 1e-9*(1+math.Abs(w.Sum))*float64(w.Count) {
			t.Fatalf("%s bucket %d sum: got %g, want %g", what, i, g.Sum, w.Sum)
		}
	}
}

// TestDownsampleProperties: for random series and random bucket
// widths, every QueryDown bucket satisfies min ≤ mean ≤ max, the
// counts sum to the raw sample count, and the whole answer matches an
// independent reference aggregation bit-for-bit.
func TestDownsampleProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 30; round++ {
		s, _ := tempStore(t, Options{PageSize: 128 + 128*rng.Intn(4)})
		times, vals := genSeries(t, s, "x", rng)
		if rng.Intn(2) == 0 {
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		for trial := 0; trial < 4; trial++ {
			stepS := times[1] - times[0]
			if len(times) > 1 && times[1]-times[0] <= 0 {
				stepS = 1
			}
			bucketS := stepS * float64(1+rng.Intn(40))
			got, err := s.QueryDown("x", math.Inf(-1), math.Inf(1), bucketS)
			if err != nil {
				t.Fatalf("QueryDown: %v", err)
			}
			sameBuckets(t, "vs reference", got, refBuckets(times, vals, bucketS), true)
			var n uint64
			for _, b := range got {
				n += b.Count
				if !(b.Min <= b.Mean() && b.Mean() <= b.Max) {
					t.Fatalf("bucket %+v: min ≤ mean ≤ max violated (mean %g)", b, b.Mean())
				}
			}
			if n != uint64(len(vals)) {
				t.Fatalf("bucket counts sum to %d, want %d", n, len(vals))
			}
		}
		s.Close()
	}
}
