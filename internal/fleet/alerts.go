// Fleet-scale alerting: the recorder's rule DSL (internal/obs/ts),
// lifted from one device's series to every device in the registry.
// Rules are evaluated at the tick barrier — membership frozen, shards
// idle — against the barrier signal samples the shards collected, in
// ascending device-id order, so the same run produces a byte-identical
// transition log no matter the shard count or wall-clock jitter.
package fleet

import (
	"fmt"
	"strings"

	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/pmic"
)

// FormatAlertTransitions renders a transition log one line per edge.
func FormatAlertTransitions(trs []pmic.AlertTransition) string {
	var sb strings.Builder
	for _, tr := range trs {
		sb.WriteString(tr.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ValidateRules rejects rules whose series is not a fleet device
// signal (soc, health, steps, temp_c, energy_j), and rules whose names
// fold to one metric name (see metricName): they would share a firing
// gauge and a recorded series. The recorder's DSL accepts any series
// name; the fleet's namespace is fixed.
func ValidateRules(rules []ts.Rule) error {
	folded := make(map[string]string, len(rules))
	for _, ru := range rules {
		if sigIndexOf(ru.Series) < 0 {
			return fmt.Errorf("fleet: rule %q: unknown device signal %q (have %s)",
				ru.Name, ru.Series, strings.Join(deviceSignals, ", "))
		}
		mn := metricName(ru.Name)
		if prev, ok := folded[mn]; ok {
			return fmt.Errorf("fleet: rules %q and %q both name the metric %s", prev, ru.Name, firingName(mn))
		}
		folded[mn] = ru.Name
	}
	return nil
}

func sigIndexOf(series string) int {
	for i, name := range deviceSignals {
		if name == series {
			return i
		}
	}
	return -1
}

// alertEngine evaluates the fleet's rule set at every tick barrier
// through a ts.Engine, one subject per device (held by the device, see
// device.alert). All state is touched only from the barrier (regMu
// read-held, tickMu held), so it needs no lock of its own.
type alertEngine struct {
	eng    *ts.Engine
	rules  []ts.Rule
	sigIdx []int        // rule -> deviceSignals index (-1: never matches)
	in     []ts.Reading // one device's readings, reused
	log    []pmic.AlertTransition

	// Barrier rollups, recomputed every evaluation.
	firing      []int
	totalFiring int
	skipped     int // quarantined/errored devices not evaluated

	firingG []*obs.Gauge
	totalG  *obs.Gauge
	skipG   *obs.Gauge
	transC  *obs.Counter
	tracer  *obs.Tracer

	// rec records the per-rule firing counts plus the cumulative
	// transition count; vals is its reused sample row.
	rec  recGrid
	vals []float64
}

func newAlertEngine(rules []ts.Rule, reg *obs.Registry) *alertEngine {
	e := &alertEngine{
		eng:     ts.NewEngine(rules),
		rules:   rules,
		sigIdx:  make([]int, len(rules)),
		in:      make([]ts.Reading, len(rules)),
		firing:  make([]int, len(rules)),
		firingG: make([]*obs.Gauge, len(rules)),
		totalG:  reg.Gauge("sdb_fleet_alerts_firing"),
		skipG:   reg.Gauge("sdb_fleet_alerts_skipped_devices"),
		transC:  reg.Counter("sdb_fleet_alert_transitions_total"),
		tracer:  reg.Tracer(),
		vals:    make([]float64, len(rules)+1),
	}
	for i, ru := range rules {
		e.sigIdx[i] = sigIndexOf(ru.Series)
		name := firingName(metricName(ru.Name))
		e.firingG[i] = reg.Gauge(name)
		e.rec.names = append(e.rec.names, name)
		e.rec.kinds = append(e.rec.kinds, ts.KindGauge)
	}
	e.rec.names = append(e.rec.names, "sdb_fleet_alert_transitions")
	e.rec.kinds = append(e.rec.kinds, ts.KindFCounter)
	return e
}

// firingName is the registry gauge and recorded series counting the
// devices a rule fires on.
func firingName(metric string) string { return "sdb_fleet_alert_" + metric + "_firing" }

// metricName folds an arbitrary rule name into the registry's
// identifier alphabet.
func metricName(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// evalBarrier runs every rule over every evaluable device and returns
// this barrier's transitions. Called from Tick with regMu read-held
// and all shards idle. Devices are visited in ascending id order and
// quarantined, errored, and signal-less devices are skipped (and
// counted), which makes the transition log deterministic for a given
// run regardless of sharding. A removed device's alert state goes with
// it, so a firing alert on it resolves by omission (matching how its
// series vanish from pushes).
func (e *alertEngine) evalBarrier(f *Fleet) []pmic.AlertTransition {
	start := len(e.log)
	clear(e.firing)
	e.skipped = 0

	for _, d := range f.byID {
		if !d.live() {
			e.skipped++
			continue
		}
		if d.alert == nil {
			d.alert = e.eng.NewSubject()
		}
		for ri, idx := range e.sigIdx {
			if idx < 0 {
				e.in[ri] = ts.Reading{NoData: true}
			} else {
				e.in[ri] = ts.Reading{V: d.sig.v[idx]}
			}
		}
		// A device whose clock stopped (done) has no new sample: Eval
		// leaves its lifecycles frozen, and firing ones still count.
		for _, ed := range e.eng.Eval(d.alert, d.sig.t, e.in) {
			e.transition(d.id, d.sig.t, ed)
		}
		for ri := range e.firing {
			if d.alert.Alerts[ri].State == ts.StateFiring {
				e.firing[ri]++
			}
		}
	}

	e.totalFiring = 0
	for i, n := range e.firing {
		e.firingG[i].Set(float64(n))
		e.totalFiring += n
	}
	e.totalG.Set(float64(e.totalFiring))
	e.skipG.Set(float64(e.skipped))
	return e.log[start:]
}

// transition records one fire/resolve edge: appended to the durable
// log (returned to Tick for pushes), counted, and emitted as a trace
// event (scope "fleet", Cell = device id) so trace subscribers see
// edges even without an alert subscription.
func (e *alertEngine) transition(dev uint16, t float64, ed ts.Edge) {
	ru := &e.rules[ed.Rule]
	e.log = append(e.log, pmic.AlertTransition{
		TimeS: t, Device: dev, Rule: ru.Name,
		From: ed.From, To: ed.To, Value: ed.Value, Threshold: ru.Threshold,
	})
	e.transC.Inc()
	kind := "alert.fire"
	if ed.To != ts.StateFiring {
		kind = "alert.resolve"
	}
	e.tracer.Emit(obs.Event{
		TimeS: t, Scope: "fleet", Kind: kind, Cell: int(dev),
		V1: ed.Value, V2: ru.Threshold, Detail: ru.Name,
	})
}

// recordRollups appends the per-rule firing counts (plus the
// cumulative transition count) to the fleet's telemetry store on the
// recording cadence. maxT is the barrier's newest device sim time.
// Called from Tick only when recording is configured and healthy.
func (e *alertEngine) recordRollups(f *Fleet, maxT float64) {
	if !e.rec.due(maxT) {
		return
	}
	for i, n := range e.firing {
		e.vals[i] = float64(n)
	}
	e.vals[len(e.rules)] = float64(len(e.log))
	if err := e.rec.record(f.cfg.Record, maxT, e.vals); err != nil {
		f.recordFail(pmic.PushFleetDevice, err)
	}
}

// AlertTransitions copies out the fleet's alert transition log in
// evaluation order. The log is the run's deterministic record: two
// runs of the same seeded fleet produce byte-identical
// FormatAlertTransitions output.
func (f *Fleet) AlertTransitions() []pmic.AlertTransition {
	f.tickMu.Lock()
	defer f.tickMu.Unlock()
	if f.alerts == nil {
		return nil
	}
	out := make([]pmic.AlertTransition, len(f.alerts.log))
	copy(out, f.alerts.log)
	return out
}

// AlertRules returns the rule set the fleet evaluates (nil without
// alerting).
func (f *Fleet) AlertRules() []ts.Rule {
	if f.alerts == nil {
		return nil
	}
	return f.alerts.rules
}
