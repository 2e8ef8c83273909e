package ts

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"sdb/internal/obs"
)

// Alert rules are declarative threshold checks over recorded series,
// evaluated after every sample. One rule per line:
//
//	alert <name> <signal> <op> <value> [for <duration>] [over <duration>]
//
//	signal   := <series> | rate(<series>) | delta(<series>) | abs(<signal>)
//	op       := > | >= | < | <= | == | !=
//	value    := number | healthy | degraded | safemode | failed
//	duration := Go duration syntax (90s, 10m, 1h30m), in sim time
//
// `for` holds the condition pending until it has been continuously
// true that long (0 = fire on first true sample). `over` sets the
// rate/delta window: the base sample is the newest one at least that
// old (default: the previous sample; see Engine). Blank lines
// and #-comments are ignored. Examples:
//
//	alert brownout    rate(sdb_pmic_brownout_steps_total) > 0
//	alert energy-leak abs(sdb_emulator_energy_residual_joules) > 1e-6
//	alert degraded    sdb_core_health_state >= degraded for 10m
type Rule struct {
	// Name labels the alert in trace events and audit records.
	Name string
	// Series is the series the signal reads.
	Series string
	// Sig selects the derived signal.
	Sig SignalKind
	// Abs applies |x| to the signal before comparing.
	Abs bool
	// Op compares the signal against Threshold.
	Op CmpOp
	// Threshold is the right-hand side.
	Threshold float64
	// ForS holds the condition pending this many sim seconds before
	// firing; 0 fires immediately.
	ForS float64
	// WindowS is the rate/delta window in sim seconds: the base sample
	// is the newest one at least this old; 0 means the previous sample.
	WindowS float64
}

// SignalKind selects how a rule reads its series.
type SignalKind uint8

const (
	// SigValue reads the newest sample.
	SigValue SignalKind = iota
	// SigRate reads the per-second rate over the rule's window.
	SigRate
	// SigDelta reads the change over the rule's window.
	SigDelta
)

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators, in grammar order.
const (
	OpGT CmpOp = iota
	OpGE
	OpLT
	OpLE
	OpEQ
	OpNE
)

func (o CmpOp) String() string {
	switch o {
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpEQ:
		return "=="
	case OpNE:
		return "!="
	}
	return "?"
}

func (o CmpOp) holds(v, threshold float64) bool {
	switch o {
	case OpGT:
		return v > threshold
	case OpGE:
		return v >= threshold
	case OpLT:
		return v < threshold
	case OpLE:
		return v <= threshold
	case OpEQ:
		return v == threshold
	case OpNE:
		return v != threshold
	}
	return false
}

// String renders the rule back in grammar form.
func (ru Rule) String() string {
	var sb strings.Builder
	sb.WriteString("alert ")
	sb.WriteString(ru.Name)
	sb.WriteByte(' ')
	sig := ru.Series
	switch ru.Sig {
	case SigRate:
		sig = "rate(" + sig + ")"
	case SigDelta:
		sig = "delta(" + sig + ")"
	}
	if ru.Abs {
		sig = "abs(" + sig + ")"
	}
	fmt.Fprintf(&sb, "%s %s %g", sig, ru.Op, ru.Threshold)
	// Round, not truncate: a parsed 1570ms is 1.57 s, and 1.57e9 ns
	// lands just below 1570000000 in floating point.
	if ru.ForS > 0 {
		fmt.Fprintf(&sb, " for %s", time.Duration(math.Round(ru.ForS*float64(time.Second))))
	}
	if ru.WindowS > 0 {
		fmt.Fprintf(&sb, " over %s", time.Duration(math.Round(ru.WindowS*float64(time.Second))))
	}
	return sb.String()
}

// healthSymbols maps the core degradation-ladder names to the values
// sdb_core_health_state reports, so rules can say `>= degraded`
// instead of a magic number. Mirrors core.Health's iota order.
var healthSymbols = map[string]float64{
	"healthy":  0,
	"degraded": 1,
	"safemode": 2,
	"failed":   3,
}

// ParseRules parses a rule file. Errors carry 1-based line numbers.
func ParseRules(src string) ([]Rule, error) {
	var rules []Rule
	seen := make(map[string]bool)
	for i, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ru, err := parseRule(line)
		if err != nil {
			return nil, fmt.Errorf("rules line %d: %w", i+1, err)
		}
		if seen[ru.Name] {
			return nil, fmt.Errorf("rules line %d: duplicate alert name %q", i+1, ru.Name)
		}
		seen[ru.Name] = true
		rules = append(rules, ru)
	}
	return rules, nil
}

func parseRule(line string) (Rule, error) {
	f := strings.Fields(line)
	if len(f) < 5 || f[0] != "alert" {
		return Rule{}, fmt.Errorf("want `alert <name> <signal> <op> <value> [for <dur>] [over <dur>]`, got %q", line)
	}
	ru := Rule{Name: f[1]}

	sig := f[2]
	for {
		switch {
		case strings.HasPrefix(sig, "abs(") && strings.HasSuffix(sig, ")"):
			if ru.Abs {
				return Rule{}, fmt.Errorf("nested abs in %q", f[2])
			}
			ru.Abs = true
			sig = sig[4 : len(sig)-1]
		case strings.HasPrefix(sig, "rate(") && strings.HasSuffix(sig, ")"):
			if ru.Sig != SigValue {
				return Rule{}, fmt.Errorf("nested rate/delta in %q", f[2])
			}
			ru.Sig = SigRate
			sig = sig[5 : len(sig)-1]
		case strings.HasPrefix(sig, "delta(") && strings.HasSuffix(sig, ")"):
			if ru.Sig != SigValue {
				return Rule{}, fmt.Errorf("nested rate/delta in %q", f[2])
			}
			ru.Sig = SigDelta
			sig = sig[6 : len(sig)-1]
		default:
			if strings.ContainsAny(sig, "() ") || sig == "" {
				return Rule{}, fmt.Errorf("bad signal %q", f[2])
			}
			ru.Series = sig
			goto signalDone
		}
		if ru.Sig != SigValue && strings.HasPrefix(sig, "abs(") {
			return Rule{}, fmt.Errorf("abs must wrap rate/delta, not the reverse, in %q", f[2])
		}
	}
signalDone:

	switch f[3] {
	case ">":
		ru.Op = OpGT
	case ">=":
		ru.Op = OpGE
	case "<":
		ru.Op = OpLT
	case "<=":
		ru.Op = OpLE
	case "==":
		ru.Op = OpEQ
	case "!=":
		ru.Op = OpNE
	default:
		return Rule{}, fmt.Errorf("bad operator %q", f[3])
	}

	if v, ok := healthSymbols[strings.ToLower(f[4])]; ok {
		ru.Threshold = v
	} else {
		v, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			return Rule{}, fmt.Errorf("bad threshold %q", f[4])
		}
		ru.Threshold = v
	}

	rest := f[5:]
	for len(rest) > 0 {
		if len(rest) < 2 {
			return Rule{}, fmt.Errorf("trailing %q", strings.Join(rest, " "))
		}
		d, err := time.ParseDuration(rest[1])
		if err != nil || d < 0 {
			return Rule{}, fmt.Errorf("bad duration %q", rest[1])
		}
		switch rest[0] {
		case "for":
			ru.ForS = d.Seconds()
		case "over":
			ru.WindowS = d.Seconds()
		default:
			return Rule{}, fmt.Errorf("want `for` or `over`, got %q", rest[0])
		}
		rest = rest[2:]
	}
	return ru, nil
}

// AlertState is an alert's position in its lifecycle.
type AlertState uint8

const (
	// StateInactive: condition false (or insufficient data).
	StateInactive AlertState = iota
	// StatePending: condition true, waiting out the for-duration.
	StatePending
	// StateFiring: condition held long enough; fire was emitted.
	StateFiring
)

func (s AlertState) String() string {
	switch s {
	case StateInactive:
		return "inactive"
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	}
	return "unknown"
}

// Lifecycle is one rule's position in the inactive→pending→firing
// lifecycle. Step is the only place the lifecycle moves; Engine.Eval
// drives it for the recorder, the fleet and `sdbctl watch` alike.
type Lifecycle struct {
	State AlertState
	// SinceS is when the current state began (sim seconds); 0 for
	// never-evaluated inactive rules.
	SinceS float64
}

// Step advances the lifecycle to sim time t. raw is the rule's signal
// before Abs; ok is false when there is not enough history to compute
// it. Without data a pending rule returns to inactive silently and a
// firing rule holds: it resolves only when the condition is observably
// false. v is the compared value (raw, or |raw| under Abs). edge
// reports a fire or resolve; the lifecycle then moved from `from` to
// State.
func (l *Lifecycle) Step(ru *Rule, t, raw float64, ok bool) (v float64, from AlertState, edge bool) {
	from = l.State
	if !ok {
		if l.State == StatePending {
			l.State, l.SinceS = StateInactive, t
		}
		return raw, from, false
	}
	v = raw
	if ru.Abs {
		v = math.Abs(v)
	}
	cond := ru.Op.holds(v, ru.Threshold)
	switch {
	case cond && l.State == StateInactive:
		if ru.ForS <= 0 {
			l.State, l.SinceS = StateFiring, t
			return v, from, true
		}
		l.State, l.SinceS = StatePending, t
	case cond && l.State == StatePending:
		if t-l.SinceS >= ru.ForS-1e-9 {
			l.State, l.SinceS = StateFiring, t
			return v, from, true
		}
	case !cond && l.State == StatePending:
		l.State, l.SinceS = StateInactive, t
	case !cond && l.State == StateFiring:
		l.State, l.SinceS = StateInactive, t
		return v, from, true
	}
	return v, from, false
}

// AlertStatus is one rule's live state, as reported by AlertStates.
type AlertStatus struct {
	Rule Rule
	Status
	// Fired counts fire transitions over the evaluator's lifetime.
	Fired int
}

// Evaluator runs alert rules after every recorder sample, through an
// Engine with the recorder's registry as its one subject. It emits a
// trace event (scope "ts", kinds "alert.fire"/"alert.resolve") and an
// audit record on each transition; steady-state evaluation with no
// transitions is alloc-free.
type Evaluator struct {
	eng    *Engine
	sub    *Subject
	in     []Reading
	fired  []int
	tracer *obs.Tracer
	audit  *obs.AuditLog
}

func newEvaluator(rules []Rule, reg *obs.Registry) *Evaluator {
	eng := NewEngine(rules)
	return &Evaluator{
		eng:    eng,
		sub:    eng.NewSubject(),
		in:     make([]Reading, len(rules)),
		fired:  make([]int, len(rules)),
		tracer: reg.Tracer(),
		audit:  reg.Audit(),
	}
}

// evalLocked evaluates every rule against the recorder's newest samples
// at sim time t. Called with r.mu held, right after each sample lands.
// Nil-safe.
func (e *Evaluator) evalLocked(r *Recorder, t float64) {
	if e == nil {
		return
	}
	for i := range e.eng.rules {
		s, ok := r.byName[e.eng.rules[i].Series]
		if ok && s.n > 0 {
			e.in[i] = Reading{V: s.last()}
		} else {
			e.in[i] = Reading{NoData: true}
		}
	}
	for _, ed := range e.eng.Eval(e.sub, t, e.in) {
		if ed.To == StateFiring {
			e.fired[ed.Rule]++
			e.emit(ed, t, "alert.fire", "fired")
		} else {
			e.emit(ed, t, "alert.resolve", "resolved")
		}
	}
}

// emit publishes one transition as a trace event plus an audit record.
// Transitions are rare edges, so the fmt allocation here is acceptable
// (same policy as trace-event emission elsewhere in the stack).
func (e *Evaluator) emit(ed Edge, t float64, kind, verb string) {
	ru := &e.eng.rules[ed.Rule]
	e.tracer.Emit(obs.Event{
		TimeS:  t,
		Scope:  "ts",
		Kind:   kind,
		V1:     ed.Value,
		V2:     ru.Threshold,
		Detail: ru.Name,
	})
	e.audit.Add(obs.AuditRecord{
		TimeS:     t,
		DisPolicy: "-",
		ChgPolicy: "-",
		Health:    "-",
		Note:      fmt.Sprintf("alert %q %s: %s (value %g)", ru.Name, verb, ru.String(), ed.Value),
	})
}

// AlertStates copies out the live alert table (nil when the recorder
// has no rules).
func (r *Recorder) AlertStates() []AlertStatus {
	if r == nil || r.eval == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.eval
	out := make([]AlertStatus, len(e.eng.rules))
	for i, st := range e.sub.Alerts {
		out[i] = AlertStatus{Rule: e.eng.rules[i], Status: st, Fired: e.fired[i]}
	}
	return out
}
