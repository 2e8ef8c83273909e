package ts

import (
	"strings"
	"testing"

	"sdb/internal/obs"
)

// TestParseRulesTable covers the grammar: signals, operators, symbolic
// thresholds, for/over clauses, comments, and rejection of malformed
// lines.
func TestParseRulesTable(t *testing.T) {
	good := []struct {
		line string
		want Rule
	}{
		{"alert b rate(sdb_pmic_brownout_steps_total) > 0",
			Rule{Name: "b", Series: "sdb_pmic_brownout_steps_total", Sig: SigRate, Op: OpGT}},
		{"alert e abs(sdb_emulator_energy_residual_joules) > 1e-6",
			Rule{Name: "e", Series: "sdb_emulator_energy_residual_joules", Abs: true, Op: OpGT, Threshold: 1e-6}},
		{"alert h sdb_core_health_state >= degraded for 10m",
			Rule{Name: "h", Series: "sdb_core_health_state", Op: OpGE, Threshold: 1, ForS: 600}},
		{"alert d delta(x_total) <= 5 for 90s over 5m",
			Rule{Name: "d", Series: "x_total", Sig: SigDelta, Op: OpLE, Threshold: 5, ForS: 90, WindowS: 300}},
		{"alert ar abs(rate(x_total)) != 0",
			Rule{Name: "ar", Series: "x_total", Sig: SigRate, Abs: true, Op: OpNE}},
		{"alert f sdb_core_health_state == failed",
			Rule{Name: "f", Series: "sdb_core_health_state", Op: OpEQ, Threshold: 3}},
		{"alert lt g < -2.5", Rule{Name: "lt", Series: "g", Op: OpLT, Threshold: -2.5}},
	}
	for _, tc := range good {
		rules, err := ParseRules(tc.line)
		if err != nil {
			t.Errorf("%q: %v", tc.line, err)
			continue
		}
		if len(rules) != 1 || rules[0] != tc.want {
			t.Errorf("%q parsed to %+v, want %+v", tc.line, rules[0], tc.want)
		}
	}

	bad := []string{
		"alert",                        // too short
		"watch x y > 1",                // wrong keyword
		"alert x y ~ 1",                // bad op
		"alert x y > banana",           // bad threshold
		"alert x rate(y > 1",           // unbalanced signal
		"alert x rate(abs(y)) > 1",     // abs inside rate
		"alert x abs(abs(y)) > 1",      // nested abs
		"alert x y > 1 for",            // dangling clause
		"alert x y > 1 for nope",       // bad duration
		"alert x y > 1 within 10s",     // unknown clause
		"alert x y > 1\nalert x z > 2", // duplicate name
	}
	for _, line := range bad {
		if _, err := ParseRules(line); err == nil {
			t.Errorf("%q: expected parse error", line)
		}
	}

	// Comments and blanks are ignored; errors carry line numbers.
	rules, err := ParseRules("# header\n\nalert a x > 1\n")
	if err != nil || len(rules) != 1 {
		t.Fatalf("commented file: %v, %d rules", err, len(rules))
	}
	_, err = ParseRules("alert a x > 1\nbogus line")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should carry line number, got %v", err)
	}
}

// TestRuleStringRoundTrip: Rule.String() re-parses to the same rule.
func TestRuleStringRoundTrip(t *testing.T) {
	src := "alert d abs(delta(x_total)) >= 2 for 90s over 5m"
	rules, err := ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseRules(rules[0].String())
	if err != nil {
		t.Fatalf("%q did not re-parse: %v", rules[0].String(), err)
	}
	if again[0] != rules[0] {
		t.Errorf("round trip changed rule: %+v vs %+v", again[0], rules[0])
	}
}

// TestAlertLifecycle drives a for-duration rule through
// inactive → pending → firing → resolve and checks the emitted trace
// events and audit records.
func TestAlertLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("health")
	rules, err := ParseRules("alert deg health >= degraded for 30s")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(reg, Config{StepS: 10, Retain: 64, Rules: rules})

	state := func() AlertStatus { return r.AlertStates()[0] }

	g.Set(0)
	r.Sample(0)
	if st := state(); st.State != StateInactive {
		t.Fatalf("t=0: %v", st.State)
	}
	// Condition turns true: pending, not yet firing.
	g.Set(1)
	r.Sample(10)
	if st := state(); st.State != StatePending || st.SinceS != 10 {
		t.Fatalf("t=10: %+v", st)
	}
	r.Sample(20)
	if st := state(); st.State != StatePending {
		t.Fatalf("t=20 should still be pending: %v", st.State)
	}
	// 30 s continuously true → fires.
	r.Sample(40)
	if st := state(); st.State != StateFiring || st.Fired != 1 {
		t.Fatalf("t=40: %+v", st)
	}
	// Stays firing while true; no duplicate fire.
	r.Sample(50)
	if st := state(); st.State != StateFiring || st.Fired != 1 {
		t.Fatalf("t=50: %+v", st)
	}
	// Condition clears → resolve.
	g.Set(0)
	r.Sample(60)
	if st := state(); st.State != StateInactive {
		t.Fatalf("t=60: %+v", st)
	}

	var fires, resolves int
	for _, ev := range reg.Tracer().Events() {
		if ev.Scope != "ts" || ev.Detail != "deg" {
			continue
		}
		switch ev.Kind {
		case "alert.fire":
			fires++
			if ev.TimeS != 40 || ev.V1 != 1 || ev.V2 != 1 {
				t.Errorf("fire event %+v", ev)
			}
		case "alert.resolve":
			resolves++
			if ev.TimeS != 60 {
				t.Errorf("resolve event %+v", ev)
			}
		}
	}
	if fires != 1 || resolves != 1 {
		t.Errorf("fires=%d resolves=%d, want 1/1", fires, resolves)
	}

	recs := reg.Audit().Records()
	if len(recs) != 2 {
		t.Fatalf("audit records: %d, want 2 (fire + resolve)", len(recs))
	}
	if !strings.Contains(recs[0].Note, `alert "deg" fired`) ||
		!strings.Contains(recs[1].Note, `alert "deg" resolved`) {
		t.Errorf("audit notes: %q / %q", recs[0].Note, recs[1].Note)
	}
	if !strings.Contains(recs[0].String(), "note=") {
		t.Error("audit line should render the note")
	}
}

// TestAlertPendingResets: a blip shorter than the for-duration never
// fires — pending resets when the condition drops.
func TestAlertPendingResets(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("v")
	rules, _ := ParseRules("alert blip v > 0 for 30s")
	r := NewRecorder(reg, Config{StepS: 10, Retain: 64, Rules: rules})
	for i, v := range []float64{0, 1, 1, 0, 1, 0} {
		g.Set(v)
		r.Sample(float64(i) * 10)
	}
	st := r.AlertStates()[0]
	if st.Fired != 0 || st.State != StateInactive {
		t.Fatalf("blips should not fire: %+v", st)
	}
	if reg.Tracer().Len() != 0 {
		t.Error("no trace events expected")
	}
}

// TestAlertImmediateFire: ForS == 0 fires on the first true sample and
// counts repeated episodes.
func TestAlertImmediateFire(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("b_total")
	rules, _ := ParseRules("alert b rate(b_total) > 0")
	r := NewRecorder(reg, Config{StepS: 10, Retain: 64, Rules: rules})
	r.Sample(0)
	r.Sample(10) // rate 0 — inactive
	c.Add(5)
	r.Sample(20) // rate 0.5 — fires
	r.Sample(30) // rate 0 — resolves
	c.Add(1)
	r.Sample(40) // fires again
	st := r.AlertStates()[0]
	if st.Fired != 2 {
		t.Fatalf("Fired = %d, want 2: %+v", st.Fired, st)
	}
	if st.State != StateFiring {
		t.Fatalf("state = %v, want firing", st.State)
	}
}

// TestAlertStateStrings pins the display names used by sdbctl watch.
func TestAlertStateStrings(t *testing.T) {
	if StateInactive.String() != "inactive" || StatePending.String() != "pending" ||
		StateFiring.String() != "firing" || AlertState(9).String() != "unknown" {
		t.Error("AlertState names changed")
	}
	for _, op := range []CmpOp{OpGT, OpGE, OpLT, OpLE, OpEQ, OpNE} {
		if op.String() == "?" {
			t.Errorf("op %d has no name", op)
		}
	}
}

// TestLifecycleStep drives Lifecycle.Step through every (state, cond,
// ok, for) cell of the transition table, including both sides of the
// ForS-1e-9 hold boundary.
func TestLifecycleStep(t *testing.T) {
	const forS = 60.0
	// raw 2 satisfies `> 1`, raw 0 does not.
	cases := []struct {
		name      string
		state     AlertState
		sinceS    float64
		forS      float64
		raw       float64
		ok        bool
		t         float64
		want      AlertState
		wantSince float64
		edge      bool
	}{
		{"inactive true for=0 fires", StateInactive, 0, 0, 2, true, 10, StateFiring, 10, true},
		{"inactive true for>0 pends", StateInactive, 0, forS, 2, true, 10, StatePending, 10, false},
		{"inactive false stays", StateInactive, 5, forS, 0, true, 10, StateInactive, 5, false},
		{"inactive no data stays", StateInactive, 5, forS, 2, false, 10, StateInactive, 5, false},
		{"pending true for=0 fires", StatePending, 0, 0, 2, true, 10, StateFiring, 10, true},
		{"pending true short of the hold", StatePending, 0, forS, 2, true, forS - 2e-9, StatePending, 0, false},
		{"pending true at for-1e-9 fires", StatePending, 0, forS, 2, true, forS - 1e-9, StateFiring, forS - 1e-9, true},
		{"pending true past the hold fires", StatePending, 0, forS, 2, true, 2 * forS, StateFiring, 2 * forS, true},
		{"pending false resets", StatePending, 0, forS, 0, true, 30, StateInactive, 30, false},
		{"pending no data resets", StatePending, 0, forS, 2, false, 30, StateInactive, 30, false},
		{"firing true holds", StateFiring, 10, forS, 2, true, 30, StateFiring, 10, false},
		{"firing true for=0 holds", StateFiring, 10, 0, 2, true, 30, StateFiring, 10, false},
		{"firing false resolves", StateFiring, 10, forS, 0, true, 30, StateInactive, 30, true},
		{"firing no data holds", StateFiring, 10, forS, 0, false, 30, StateFiring, 10, false},
	}
	for _, tc := range cases {
		for _, abs := range []bool{false, true} {
			ru := &Rule{Name: "r", Series: "x", Op: OpGT, Threshold: 1, ForS: tc.forS, Abs: abs}
			raw := tc.raw
			if abs {
				raw = -raw // |raw| must compare the same
			}
			l := Lifecycle{State: tc.state, SinceS: tc.sinceS}
			v, from, edge := l.Step(ru, tc.t, raw, tc.ok)
			if l.State != tc.want || l.SinceS != tc.wantSince || edge != tc.edge || from != tc.state {
				t.Errorf("%s (abs=%v): got %v since %g edge=%v from %v, want %v since %g edge=%v from %v",
					tc.name, abs, l.State, l.SinceS, edge, from, tc.want, tc.wantSince, tc.edge, tc.state)
			}
			if tc.ok && v != tc.raw {
				t.Errorf("%s (abs=%v): compared value %g, want %g", tc.name, abs, v, tc.raw)
			}
		}
	}
}
