package ts

import "math"

// Engine evaluates one rule set for any number of subjects: the one
// registry a Recorder scrapes, each device of a fleet, or the scrapes
// `sdbctl watch` takes of a remote controller. The caller reads each
// rule's newest value its own way and hands it to Eval; the engine
// derives rate and delta signals over the rule's `over` window, steps
// each rule's Lifecycle, and returns the edges, which the caller emits
// its own way.
//
// The window rule: the base sample is the newest one at least `over`
// older than now (one sample back when `over` is 0); with less history
// than that the oldest sample stands in. rate divides the change by the
// actual span. A rule needs two samples before it has a signal.
//
// Not self-synchronizing: callers serialize Eval calls on one engine.
type Engine struct {
	rules []Rule
	// win maps a rule to its history slot in a Subject, -1 for a level
	// rule, which reads only the newest value.
	win   []int
	nWin  int
	edges []Edge
}

// Reading is one rule's newest value on one subject. NoData marks a
// subject with no value for the rule's series this round.
type Reading struct {
	V      float64
	NoData bool
}

// Edge is one fire or resolve: rule index Rule moved From → To on the
// subject, comparing Value against the threshold.
type Edge struct {
	Rule     int
	From, To AlertState
	Value    float64
}

// Status is one rule's state on one subject.
type Status struct {
	Lifecycle
	// Value is the rule's most recently compared signal (NaN before
	// data).
	Value float64
}

// Subject is one subject's alert state under an Engine: a Status per
// rule and, per rate/delta rule, the history its window spans.
type Subject struct {
	// Alerts holds each rule's state, in rule order.
	Alerts []Status
	hist   []history
	lastT  float64
}

// NewEngine builds an engine over rules (parse them with ParseRules).
func NewEngine(rules []Rule) *Engine {
	e := &Engine{rules: rules, win: make([]int, len(rules))}
	for i, ru := range rules {
		e.win[i] = -1
		if ru.Sig == SigRate || ru.Sig == SigDelta {
			e.win[i] = e.nWin
			e.nWin++
		}
	}
	return e
}

// NewSubject returns the state of a subject not yet evaluated.
func (e *Engine) NewSubject() *Subject {
	s := &Subject{
		Alerts: make([]Status, len(e.rules)),
		hist:   make([]history, e.nWin),
		lastT:  math.Inf(-1),
	}
	for i := range s.Alerts {
		s.Alerts[i].Value = math.NaN()
	}
	return s
}

// Eval evaluates every rule on subject s at sim time t, in[i] being
// rule i's newest value, and returns the edges in rule order. A t not
// after the subject's previous evaluation is no new sample: nothing
// moves and no edge is returned. The returned slice is reused by the
// next Eval. Once every window holds its span and the edge buffer has
// seen its largest round, Eval allocates nothing.
func (e *Engine) Eval(s *Subject, t float64, in []Reading) []Edge {
	e.edges = e.edges[:0]
	if !(t > s.lastT) {
		return e.edges
	}
	s.lastT = t
	for i := range e.rules {
		ru := &e.rules[i]
		st := &s.Alerts[i]
		raw, ok := in[i].V, !in[i].NoData
		if w := e.win[i]; w >= 0 && ok {
			t0, v0, have := s.hist[w].observe(t, raw, ru.WindowS)
			switch {
			case !have:
				ok = false
			case ru.Sig == SigRate:
				raw = (raw - v0) / (t - t0)
			default:
				raw -= v0
			}
		}
		v, from, edge := st.Step(ru, t, raw, ok)
		if ok {
			st.Value = v
		}
		if edge {
			e.edges = append(e.edges, Edge{Rule: i, From: from, To: st.State, Value: v})
		}
	}
	return e.edges
}

// history is one (subject, window rule) sample window: the rule's base
// sample through the newest, oldest first, in a ring whose capacity
// doubles while the window fills and then stays put.
type history struct {
	buf     []point
	head, n int
}

type point struct{ t, v float64 }

func (h *history) at(i int) point { return h.buf[(h.head+i)&(len(h.buf)-1)] }

// observe records the sample (t, v) and returns the window's base: the
// newest earlier sample at least overS older than t, or the oldest when
// none is that old. have is false for the first sample. Samples older
// than the base can never be a base again (t only grows) and are
// dropped first, so the ring holds exactly the window's span.
func (h *history) observe(t, v, overS float64) (t0, v0 float64, have bool) {
	const eps = 1e-9
	for h.n > 1 && t-h.at(1).t >= overS-eps {
		h.head = (h.head + 1) & (len(h.buf) - 1)
		h.n--
	}
	if h.n > 0 {
		b := h.at(0)
		t0, v0, have = b.t, b.v, true
	}
	if h.n == len(h.buf) {
		grown := make([]point, max(2, 2*len(h.buf)))
		for i := 0; i < h.n; i++ {
			grown[i] = h.at(i)
		}
		h.buf, h.head = grown, 0
	}
	h.buf[(h.head+h.n)&(len(h.buf)-1)] = point{t, v}
	h.n++
	return t0, v0, have
}
