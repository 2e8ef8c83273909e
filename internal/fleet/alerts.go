// Fleet-scale alerting: the recorder's rule DSL (internal/obs/ts),
// lifted from one device's series to every device in the registry.
// Rules are evaluated at the tick barrier — membership frozen, shards
// idle — against the barrier signal samples the shards collected, in
// ascending device-id order, so the same run produces a byte-identical
// transition log no matter the shard count or wall-clock jitter.
package fleet

import (
	"fmt"
	"sort"
	"strings"

	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/pmic"
)

// AlertTransition is one fleet alert edge: a rule firing or resolving
// on one device at barrier sim time TimeS.
type AlertTransition struct {
	TimeS     float64
	Device    uint16
	Rule      string
	From, To  ts.AlertState
	Value     float64
	Threshold float64
}

// String renders the transition in the fleet's canonical log form —
// the line format the determinism criterion compares byte-for-byte.
func (tr AlertTransition) String() string {
	return fmt.Sprintf("t=%.6f dev=%d rule=%s %s->%s value=%g threshold=%g",
		tr.TimeS, tr.Device, tr.Rule, tr.From, tr.To, tr.Value, tr.Threshold)
}

// FormatAlertTransitions renders a transition log one line per edge.
func FormatAlertTransitions(trs []AlertTransition) string {
	var sb strings.Builder
	for _, tr := range trs {
		sb.WriteString(tr.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ValidateRules rejects rules whose series is not a fleet device
// signal (soc, health, steps, temp_c, energy_j). The recorder's DSL
// accepts any series name; the fleet's namespace is fixed.
func ValidateRules(rules []ts.Rule) error {
	for _, ru := range rules {
		if sigIndexOf(ru.Series) < 0 {
			return fmt.Errorf("fleet: rule %q: unknown device signal %q (have %s)",
				ru.Name, ru.Series, strings.Join(deviceSignals, ", "))
		}
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

// ringCap bounds the per-(device, rule) history ring backing rate()
// and delta() signals: enough barriers to cover any reasonable `over`
// window at recording cadence without per-device allocation churn.
const ringCap = 64

// sigRing is a fixed-capacity ring of (t, v) barrier samples.
type sigRing struct {
	t, v []float64
	n    int // live samples
	head int // next write slot
}

func (r *sigRing) push(t, v float64) {
	if r.t == nil {
		r.t = make([]float64, ringCap)
		r.v = make([]float64, ringCap)
	}
	r.t[r.head] = t
	r.v[r.head] = v
	r.head = (r.head + 1) % ringCap
	if r.n < ringCap {
		r.n++
	}
}

// at returns the i-th newest sample (0 = newest).
func (r *sigRing) at(i int) (float64, float64) {
	idx := (r.head - 1 - i + 2*ringCap) % ringCap
	return r.t[idx], r.v[idx]
}

// lookback finds the newest sample at least windowS older than now —
// the recorder's window clamp: with less history than the window, the
// oldest sample stands in. ok is false with fewer than two samples.
func (r *sigRing) lookback(now, windowS float64) (t, v float64, ok bool) {
	if r.n < 2 {
		return 0, 0, false
	}
	const eps = 1e-9
	for i := 1; i < r.n; i++ {
		t, v = r.at(i)
		if now-t >= windowS-eps {
			return t, v, true
		}
	}
	t, v = r.at(r.n - 1)
	return t, v, true
}

// devAlerts is one device's alert state: per-rule lifecycle plus, for
// rules that need history (rate/delta), a sample ring per rule.
type devAlerts struct {
	st    []ts.Lifecycle
	hist  []*sigRing // index parallel to rules; nil when not needed
	lastT float64
}

// alertEngine evaluates the fleet's rule set at every tick barrier.
// All state is touched only from the barrier (regMu read-held,
// tickMu held), so it needs no lock of its own.
type alertEngine struct {
	rules    []ts.Rule
	sigIdx   []int  // rule -> deviceSignals index (-1: never matches)
	needHist []bool // rule needs a sample ring (rate/delta)
	devs     map[uint16]*devAlerts
	log      []AlertTransition

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
		rules:    rules,
		sigIdx:   make([]int, len(rules)),
		needHist: make([]bool, len(rules)),
		devs:     make(map[uint16]*devAlerts),
		firing:   make([]int, len(rules)),
		firingG:  make([]*obs.Gauge, len(rules)),
		totalG:   reg.Gauge("sdb_fleet_alerts_firing"),
		skipG:    reg.Gauge("sdb_fleet_alerts_skipped_devices"),
		transC:   reg.Counter("sdb_fleet_alert_transitions_total"),
		tracer:   reg.Tracer(),
		vals:     make([]float64, len(rules)+1),
	}
	for i, ru := range rules {
		e.sigIdx[i] = sigIndexOf(ru.Series)
		e.needHist[i] = ru.Sig == ts.SigRate || ru.Sig == ts.SigDelta
		e.firingG[i] = reg.Gauge("sdb_fleet_alert_" + metricName(ru.Name) + "_firing")
		e.rec.names = append(e.rec.names, "sdb_fleet_alert_"+ru.Name+"_firing")
		e.rec.kinds = append(e.rec.kinds, ts.KindGauge)
	}
	e.rec.names = append(e.rec.names, "sdb_fleet_alert_transitions")
	e.rec.kinds = append(e.rec.kinds, ts.KindFCounter)
	return e
}

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
// run regardless of sharding.
func (e *alertEngine) evalBarrier(f *Fleet) []AlertTransition {
	start := len(e.log)
	for i := range e.firing {
		e.firing[i] = 0
	}
	e.skipped = 0

	ids := make([]uint16, 0, len(f.devices))
	for id := range f.devices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, id := range ids {
		d := f.devices[id]
		if d.quarantined.Load() || d.err != nil || !d.sig.ok {
			e.skipped++
			continue
		}
		da := e.devs[id]
		if da == nil {
			da = &devAlerts{
				st:    make([]ts.Lifecycle, len(e.rules)),
				hist:  make([]*sigRing, len(e.rules)),
				lastT: -1,
			}
			e.devs[id] = da
		}
		t := d.sig.t
		if t <= da.lastT {
			// Clock stopped (device done): no new sample, lifecycle
			// frozen — but firing states still count toward rollups.
			for ri := range e.rules {
				if da.st[ri].State == ts.StateFiring {
					e.firing[ri]++
				}
			}
			continue
		}
		da.lastT = t
		for ri := range e.rules {
			e.evalRule(da, ri, id, t, d.sig.v[:])
		}
	}

	// Devices removed from the registry shed their alert state; a
	// firing alert on a removed device resolves by omission (matching
	// how its series vanish from pushes).
	if len(e.devs) > len(f.devices) {
		for id := range e.devs {
			if _, ok := f.devices[id]; !ok {
				delete(e.devs, id)
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

// evalRule advances one rule's lifecycle on one device, reading the
// signal from the device's barrier sample and its history ring.
func (e *alertEngine) evalRule(da *devAlerts, ri int, dev uint16, t float64, sig []float64) {
	ru := &e.rules[ri]
	st := &da.st[ri]
	idx := e.sigIdx[ri]
	if idx < 0 {
		return
	}
	raw := sig[idx]
	ok := true
	if e.needHist[ri] {
		ring := da.hist[ri]
		if ring == nil {
			ring = &sigRing{}
			da.hist[ri] = ring
		}
		ring.push(t, raw)
		// A zero window is one barrier step: the previous sample
		// qualifies.
		t0, v0, have := ring.lookback(t, ru.WindowS)
		if !have || t <= t0 {
			ok = false
		} else if ru.Sig == ts.SigRate {
			raw = (raw - v0) / (t - t0)
		} else {
			raw -= v0
		}
	}
	v, from, edge := st.Step(ru, t, raw, ok)
	if edge {
		e.transition(ri, dev, t, from, st.State, v)
	}
	if st.State == ts.StateFiring {
		e.firing[ri]++
	}
}

// transition records one fire/resolve edge: appended to the durable
// log (returned to Tick for pushes), counted, and emitted as a trace
// event (scope "fleet", Cell = device id) so trace subscribers see
// edges even without an alert subscription.
func (e *alertEngine) transition(ri int, dev uint16, t float64, from, to ts.AlertState, v float64) {
	ru := &e.rules[ri]
	e.log = append(e.log, AlertTransition{
		TimeS: t, Device: dev, Rule: ru.Name,
		From: from, To: to, Value: v, Threshold: ru.Threshold,
	})
	e.transC.Inc()
	kind := "alert.fire"
	if to != ts.StateFiring {
		kind = "alert.resolve"
	}
	e.tracer.Emit(obs.Event{
		TimeS: t, Scope: "fleet", Kind: kind, Cell: int(dev),
		V1: v, V2: ru.Threshold, Detail: ru.Name,
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
func (f *Fleet) AlertTransitions() []AlertTransition {
	f.tickMu.Lock()
	defer f.tickMu.Unlock()
	if f.alerts == nil {
		return nil
	}
	out := make([]AlertTransition, len(f.alerts.log))
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
