package ts

import (
	"math"
	"testing"
)

func mustRules(t *testing.T, src string) []Rule {
	t.Helper()
	rules, err := ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// TestEngineWindowRule pins the one window rule on a 60-s cadence: the
// base sample is the newest one at least `over` older than now (the
// previous one for `over` 0), with the oldest standing in while the
// history is shorter; x grows 60 per sample, so delta reads 60 per
// sample step the window reaches back.
func TestEngineWindowRule(t *testing.T) {
	rules := mustRules(t, `alert w0 delta(x) > 1e18
alert w60 delta(x) > 1e18 over 60s
alert w90 delta(x) > 1e18 over 90s
alert w120 delta(x) > 1e18 over 120s
alert w1h delta(x) > 1e18 over 1h`)
	eng := NewEngine(rules)
	sub := eng.NewSubject()
	in := make([]Reading, 5)
	want := [][5]float64{
		// t=0: one sample, no signal yet.
		{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()},
		{60, 60, 60, 60, 60},    // t=60: the oldest stands in
		{60, 60, 120, 120, 120}, // t=120: 90 s rounds up to 120 s
		{60, 60, 120, 120, 180}, // t=180
		{60, 60, 120, 120, 240}, // t=240: 1h keeps growing
	}
	for i, w := range want {
		tS := float64(i) * 60
		for r := range in {
			in[r] = Reading{V: tS}
		}
		eng.Eval(sub, tS, in)
		for r, wv := range w {
			got := sub.Alerts[r].Value
			if got != wv && !(math.IsNaN(got) && math.IsNaN(wv)) {
				t.Errorf("t=%g %s: delta %g, want %g", tS, rules[r].Name, got, wv)
			}
		}
	}
}

// TestEngineRateDividesByActualSpan: on an irregular clock, rate is
// the change over the base sample's real distance, not over `over`.
func TestEngineRateDividesByActualSpan(t *testing.T) {
	eng := NewEngine(mustRules(t, "alert r rate(x) >= 1 over 10s"))
	sub := eng.NewSubject()
	for _, s := range []struct{ t, v float64 }{{0, 0}, {4, 8}, {25, 50}} {
		eng.Eval(sub, s.t, []Reading{{V: s.v}})
	}
	// At t=25 the newest sample at least 10 s old is t=4: 42 over 21 s.
	if got := sub.Alerts[0].Value; got != 2 {
		t.Fatalf("rate = %g, want 2", got)
	}
}

// TestEngineHistoryHoldsOnlyTheWindow: a window rule keeps the base
// sample through the newest and nothing older, and its ring stops
// growing once the window is full.
func TestEngineHistoryHoldsOnlyTheWindow(t *testing.T) {
	eng := NewEngine(mustRules(t, "alert a delta(x) > 1e18 over 10m\nalert b rate(x) > 1e18\nalert c x > 1e18"))
	sub := eng.NewSubject()
	in := make([]Reading, 3)
	var capAt20 int
	for i := 0; i < 100; i++ {
		for r := range in {
			in[r] = Reading{V: float64(i)}
		}
		eng.Eval(sub, float64(i)*60, in)
		if i == 20 {
			capAt20 = len(sub.hist[0].buf)
		}
	}
	if len(sub.hist) != 2 {
		t.Fatalf("%d histories for 2 window rules", len(sub.hist))
	}
	// over 10m at 60 s: t-600 … t, 11 samples; over 0: the previous
	// sample and the newest.
	if n := sub.hist[0].n; n != 11 {
		t.Errorf("10m window holds %d samples, want 11", n)
	}
	if n := sub.hist[1].n; n != 2 {
		t.Errorf("one-step window holds %d samples, want 2", n)
	}
	if c := len(sub.hist[0].buf); c != capAt20 || c > 16 {
		t.Errorf("ring capacity %d (%d at sample 20), want it settled at 16", c, capAt20)
	}
}

// TestEngineNoDataAndStaleTime: a reading without data yields no
// signal and does not enter the window, a pending rule resets, and a
// time not after the previous evaluation moves nothing.
func TestEngineNoDataAndStaleTime(t *testing.T) {
	eng := NewEngine(mustRules(t, "alert p x > 0 for 1m\nalert d delta(x) > 5"))
	sub := eng.NewSubject()
	eng.Eval(sub, 0, []Reading{{V: 1}, {V: 0}})
	if st := sub.Alerts[0]; st.State != StatePending {
		t.Fatalf("t=0: %+v, want pending", st)
	}
	eng.Eval(sub, 10, []Reading{{NoData: true}, {NoData: true}})
	if st := sub.Alerts[0]; st.State != StateInactive || st.Value != 1 {
		t.Fatalf("t=10 without data: %+v, want inactive holding value 1", st)
	}
	if n := sub.hist[0].n; n != 1 {
		t.Fatalf("a no-data reading entered the window: %d samples", n)
	}
	edges := eng.Eval(sub, 20, []Reading{{V: 1}, {V: 10}})
	if len(edges) != 1 || edges[0].Rule != 1 || edges[0].To != StateFiring || edges[0].Value != 10 {
		t.Fatalf("t=20 edges %+v, want rule d firing on delta 10", edges)
	}
	for _, stale := range []float64{20, 15, math.NaN()} {
		if edges := eng.Eval(sub, stale, []Reading{{V: 0}, {V: 0}}); len(edges) != 0 {
			t.Fatalf("t=%g after t=20 moved the lifecycle: %+v", stale, edges)
		}
	}
	if st := sub.Alerts[1]; st.State != StateFiring || st.Value != 10 || sub.hist[0].n != 2 {
		t.Fatalf("stale evaluations changed rule d: %+v, %d samples", st, sub.hist[0].n)
	}
}

// TestEngineEvalNoAllocs: once every window holds its span, evaluating
// many subjects allocates nothing — the fleet's per-barrier cost.
func TestEngineEvalNoAllocs(t *testing.T) {
	eng := NewEngine(mustRules(t, `alert lowsoc soc < 0.6 for 120s
alert draining rate(soc) < 0 over 120s
alert busy delta(steps) >= 60 over 60s
alert quiet rate(steps) > 1e18`))
	subs := make([]*Subject, 500)
	for i := range subs {
		subs[i] = eng.NewSubject()
	}
	in := make([]Reading, 4)
	tS := 0.0
	round := func() {
		tS += 60
		for i, s := range subs {
			soc := 1 - tS/1e6 - float64(i)/1e4
			in[0], in[1] = Reading{V: soc}, Reading{V: soc}
			in[2], in[3] = Reading{V: tS}, Reading{V: tS}
			eng.Eval(s, tS, in)
		}
	}
	for i := 0; i < 10; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("Eval over %d subjects allocates %v allocs/round, want 0", len(subs), allocs)
	}
}
