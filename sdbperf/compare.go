package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// Verdicts of the comparator, per (workload, end-to-end metric).
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// sideStats summarizes one side's runs of one metric.
type sideStats struct {
	n           int
	q1, med, q3 float64
}

func summarize(xs []float64) sideStats {
	q1, q2, q3 := quartiles(xs)
	return sideStats{n: len(xs), q1: q1, med: q2, q3: q3}
}

// spread is the distance between the quartiles as a share of the median.
func (s sideStats) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

// judge compares new runs of one metric against base runs. worse is
// the change of the median as a share of the base median, positive when
// the metric moved in its bad direction. The rules:
//
//   - a spread wider than the bound on either side makes the metric
//     unresolved, unless every new run beats every base run;
//   - otherwise a median worse by more than the bound is worse;
//   - better needs the new run to win at least nine tenths of the pairs
//     (runs paired in order; ties count for neither side) and a median
//     gain larger than the base runs' quartile distance;
//   - anything else is the same.
func judge(def metricDef, base, next []float64) (verdict string, worse float64) {
	b, n := summarize(base), summarize(next)
	sign := 1.0 // lower is better
	if def.Better == "higher" {
		sign = -1
	}
	if b.med != 0 {
		worse = sign * (n.med - b.med) / math.Abs(b.med)
	}
	beats := func(x, y float64) bool { return sign*(x-y) < 0 }
	if math.Max(b.spread(), n.spread()) > def.Bound {
		if beats(extreme(next, sign), extreme(base, -sign)) {
			return verdictBetter, worse
		}
		return verdictUnresolved, worse
	}
	if worse > def.Bound {
		return verdictWorse, worse
	}
	pairs := len(base)
	if len(next) < pairs {
		pairs = len(next)
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if beats(next[i], base[i]) {
			wins++
		}
	}
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && sign*(b.med-n.med) > b.q3-b.q1 {
		return verdictBetter, worse
	}
	return verdictSame, worse
}

// extreme returns the largest of xs for dir 1 and the smallest for -1:
// the worst run of a lower-is-better metric is its largest.
func extreme(xs []float64, dir float64) float64 {
	s := sorted(xs)
	if dir > 0 {
		return s[len(s)-1]
	}
	return s[0]
}

// compareRow is one line of the comparator's table.
type compareRow struct {
	workload string
	def      metricDef
	base     sideStats
	next     sideStats
	worse    float64
	verdict  string
}

// compareRecords judges every end-to-end metric of every workload that
// both sides ran without tracing. Records are paired by seed order.
func compareRecords(spec *benchSpec, base, next []runRecord) []compareRow {
	values := func(recs []runRecord, wl, name string) []float64 {
		var sel []runRecord
		for _, r := range recs {
			if r.Workload == wl && !r.Trace {
				sel = append(sel, r)
			}
		}
		sort.SliceStable(sel, func(i, j int) bool { return sel[i].Seed < sel[j].Seed })
		var out []float64
		for _, r := range sel {
			if v, ok := r.Result.Metrics[name]; ok {
				out = append(out, v.Value)
			}
		}
		return out
	}
	var rows []compareRow
	for _, w := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			b, n := values(base, w.Name, d.Name), values(next, w.Name, d.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			v, worse := judge(d, b, n)
			rows = append(rows, compareRow{w.Name, d, summarize(b), summarize(n), worse, v})
		}
	}
	return rows
}

// runCompare prints the comparator table and exits 1 when any metric is
// worse or any run failed its checks.
func runCompare(spec *benchSpec, baseGlob, newGlob string, stdout, stderr io.Writer) int {
	if baseGlob == "" || newGlob == "" {
		fmt.Fprintln(stderr, "sdbperf: -compare and -against both need a glob of run records")
		return 2
	}
	base, err := readRecords(baseGlob)
	if err == nil {
		var next []runRecord
		if next, err = readRecords(newGlob); err == nil {
			return printComparison(spec, base, next, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "sdbperf: %v\n", err)
	return 1
}

func printComparison(spec *benchSpec, base, next []runRecord, stdout, stderr io.Writer) int {
	code := 0
	for _, recs := range [][]runRecord{base, next} {
		for _, r := range recs {
			if !r.Result.Correct {
				fmt.Fprintf(stderr, "sdbperf: %s seed %d failed its checks: %v\n", r.Workload, r.Seed, r.Problems)
				code = 1
			}
		}
	}
	rows := compareRecords(spec, base, next)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "sdbperf: no workload has untraced runs on both sides")
		return 1
	}
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\t[q1, q3]\tn\tnew median\t[q1, q3]\tn\tworse by\tbound\tverdict\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t[%.4g, %.4g]\t%d\t%.4g %s\t[%.4g, %.4g]\t%d\t%+.1f%%\t%.0f%%\t%s\t\n",
			r.workload, r.def.Name, r.base.med, r.def.Unit, r.base.q1, r.base.q3, r.base.n,
			r.next.med, r.def.Unit, r.next.q1, r.next.q3, r.next.n, 100*r.worse, 100*r.def.Bound, r.verdict)
		if r.verdict == verdictWorse {
			code = 1
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "sdbperf: %v\n", err)
		return 1
	}
	return code
}

// readRecords loads every run record matching a glob.
func readRecords(glob string) ([]runRecord, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no run records match %q", glob)
	}
	var out []runRecord
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r runRecord
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" {
			return nil, errors.New(p + ": not a run record (no workload)")
		}
		out = append(out, r)
	}
	return out, nil
}
