package emulator

// Golden pin for the recorder's alert evaluator: the brownout day's
// alert trace events and audit records must match a committed file
// byte for byte.

import (
	"os"
	"strings"
	"testing"
)

func TestBrownoutAlertGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the golden pins the full-length day")
	}
	_, _, reg := recordedDay(t, true)
	var sb strings.Builder
	for _, ev := range reg.Tracer().Events() {
		if ev.Scope == "ts" {
			sb.WriteString(ev.String())
			sb.WriteByte('\n')
		}
	}
	for _, r := range reg.Audit().Records() {
		if strings.HasPrefix(r.Note, "alert ") {
			sb.WriteString(r.String())
			sb.WriteByte('\n')
		}
	}
	want, err := os.ReadFile("testdata/brownout_alerts.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("brownout alert log diverges from the golden:\n-- got --\n%s-- want --\n%s", got, want)
	}
}
