package ts

import (
	"math"
	"strings"
	"testing"
)

// TestParseRulesErrorPaths pins the diagnostics, not just the
// rejection: a rules file is hand-written config, so the error must
// say which line broke and what the parser saw there.
func TestParseRulesErrorPaths(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty alert", "alert", "line 1"},
		{"wrong keyword", "watch x y > 1", "alert <name> <signal> <op> <value>"},
		{"missing fields", "alert x y >", "alert <name> <signal> <op> <value>"},
		{"bad operator", "alert x y ~ 1", `bad operator "~"`},
		{"spaceship operator", "alert x y <=> 1", `bad operator "<=>"`},
		{"bad threshold", "alert x y > banana", `bad threshold "banana"`},
		{"unknown health symbol", "alert x y > dead", `bad threshold "dead"`},
		{"unbalanced paren", "alert x rate(y > 1", `bad signal "rate(y"`},
		{"empty signal call", "alert x rate() > 1", "bad signal"},
		{"abs inside rate", "alert x rate(abs(y)) > 1", "abs must wrap rate/delta"},
		{"nested abs", "alert x abs(abs(y)) > 1", "nested abs"},
		{"nested rate", "alert x rate(rate(y)) > 1", "nested rate/delta"},
		{"rate of delta", "alert x delta(rate(y)) > 1", "nested rate/delta"},
		{"dangling for", "alert x y > 1 for", `trailing "for"`},
		{"bad duration", "alert x y > 1 for nope", `bad duration "nope"`},
		{"negative duration", "alert x y > 1 for -10s", `bad duration "-10s"`},
		{"bare duration number", "alert x y > 1 over 10", `bad duration "10"`},
		{"unknown clause", "alert x y > 1 within 10s", "want `for` or `over`"},
		{"duplicate name", "alert x y > 1\nalert x z > 2", `line 2: duplicate alert name "x"`},
		{"line numbers skip comments", "# one\n\nalert ok y > 1\nalert bad y ~ 1", "line 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseRules(tc.src)
			if err == nil {
				t.Fatalf("ParseRules(%q) accepted bad input", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseRules(%q) error %q does not mention %q", tc.src, err, tc.want)
			}
		})
	}
}

// FuzzParseRules hammers the rule grammar: whatever the input, the
// parser must not panic, and anything it accepts must render through
// Rule.String back into a parseable, equivalent rule (the fleet server
// logs and re-reads rules in that form).
func FuzzParseRules(f *testing.F) {
	seeds := []string{
		"alert lowsoc soc < 0.62 for 60s",
		"alert draining rate(soc) < 0 over 120s",
		"alert busy delta(steps) >= 64 over 60s",
		"alert h sdb_core_health_state >= degraded for 10m",
		"alert e abs(sdb_emulator_energy_residual_joules) > 1e-6",
		"alert ar abs(rate(x_total)) != 0",
		"# comment\n\nalert a x > 1\nalert b y <= -2.5 for 90s over 5m",
		"alert x y == NaN",
		"alert x y > 0x1p-3",
		"alert x y > +Inf",
		"alert dup y > 1\nalert dup y > 2",
		"alert x rate(abs(y)) > 1",
		"alert x y > 1 for 2540400h",
		"alert x y > 1 for 1ns over 1500ms",
		"alert é série > 1",
		"alert x y > 1 within 10s",
		strings.Repeat("alert a x > 1\n", 40),
		"alert x y > 0 over 1570ms", // String once truncated this to 1.569999999s
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		rules, err := ParseRules(src)
		if err != nil {
			return
		}
		names := make(map[string]bool, len(rules))
		for _, ru := range rules {
			if ru.Name == "" || ru.Series == "" {
				t.Fatalf("accepted rule with empty name/series: %+v", ru)
			}
			if names[ru.Name] {
				t.Fatalf("duplicate name %q slipped through", ru.Name)
			}
			names[ru.Name] = true
			if ru.ForS < 0 || ru.WindowS < 0 {
				t.Fatalf("negative duration accepted: %+v", ru)
			}
			s := ru.String()
			again, err := ParseRules(s)
			if err != nil {
				t.Fatalf("String() %q of accepted rule does not re-parse: %v", s, err)
			}
			if len(again) != 1 {
				t.Fatalf("String() %q re-parsed to %d rules", s, len(again))
			}
			// Strict equality only where floats round-trip exactly: NaN
			// thresholds and >2^53 ns durations lose bits in formatting.
			if !math.IsNaN(ru.Threshold) && ru.ForS < 1e6 && ru.WindowS < 1e6 && again[0] != ru {
				t.Fatalf("round trip changed rule: %+v -> %q -> %+v", ru, s, again[0])
			}
		}
	})
}
