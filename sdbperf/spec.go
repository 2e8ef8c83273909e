package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json a run reads: the workload
// names and, for every metric, its name, unit, direction and (end-to-end
// only) regression bound.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metric is one reported value, as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measurement collects what one run measured and every correctness
// problem it found.
type measurement struct {
	values    map[string]metric
	attempted int64
	failed    int64
	problems  []string
}

func newMeasurement() *measurement { return &measurement{values: map[string]metric{}} }

func (m *measurement) set(name, unit string, v float64) { m.values[name] = metric{v, unit} }

// zero reports every metric of a layer the workload never calls as 0.
func (m *measurement) zero(defs []metricDef) {
	for _, d := range defs {
		m.set(d.Name, d.Unit, 0)
	}
}

func (m *measurement) problem(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// result selects the metrics defs names. A def the workload did not
// measure, or measured in another unit, is an error in the benchmark
// itself, not in the program under test.
func (m *measurement) result(defs []metricDef) (result, error) {
	r := result{
		Correct:   len(m.problems) == 0 && m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := m.values[d.Name]
		switch {
		case !ok:
			missing = append(missing, d.Name)
		case v.Unit != d.Unit:
			return r, fmt.Errorf("metric %s is measured in %s, BENCHMARK.json says %s", d.Name, v.Unit, d.Unit)
		default:
			r.Metrics[d.Name] = v
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return r, fmt.Errorf("metrics in BENCHMARK.json not measured: %v", missing)
	}
	return r, nil
}
