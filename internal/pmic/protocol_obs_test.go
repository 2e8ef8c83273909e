package pmic

// Wire-protocol tests for the observability commands: CmdMetrics and
// CmdTrace round trips over a served pipe, the single-frame truncation
// rules on both, and the uninstrumented-controller answers.

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/bus"
	"sdb/internal/obs"
)

// startServedObs spins up a controller bound to reg (nil = off) served
// over a net.Pipe and returns a connected client.
func startServedObs(t *testing.T, reg *obs.Registry) (*Controller, *Client) {
	t.Helper()
	cells := []*battery.Cell{
		battery.MustNew(battery.MustByName("QuickCharge-2000")),
		battery.MustNew(battery.MustByName("Standard-2000")),
	}
	pack, err := battery.NewPack(cells...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(pack)
	cfg.Obs = reg
	ctrl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	go serveConn(ctrl, a)
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return ctrl, NewClient(b)
}

// TestClientMetricsRoundTrip: what the firmware measured must come
// back as parseable exposition text with the measured values.
func TestClientMetricsRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	ctrl, cl := startServedObs(t, reg)
	for i := 0; i < 5; i++ {
		if _, err := ctrl.Step(2.0, 0, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Discharge([]float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}

	text, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(text)
	if err != nil {
		t.Fatalf("wire exposition does not parse: %v\n%s", err, text)
	}
	want := map[string]float64{
		"sdb_pmic_steps_total":          5,
		"sdb_pmic_discharge_cmds_total": 1,
	}
	for _, f := range fams {
		if v, ok := want[f.Name]; ok {
			if len(f.Samples) != 1 || f.Samples[0].Value != v {
				t.Errorf("%s over the wire = %+v, want %g", f.Name, f.Samples, v)
			}
			delete(want, f.Name)
		}
	}
	for name := range want {
		t.Errorf("%s missing from the wire exposition", name)
	}
}

// TestClientMetricsUninstrumented: a nil-registry controller answers
// StatusOK with an empty body — "no metrics" is a state, not an error.
func TestClientMetricsUninstrumented(t *testing.T) {
	_, cl := startServedObs(t, nil)
	text, err := cl.Metrics()
	if err != nil {
		t.Fatalf("uninstrumented metrics errored: %v", err)
	}
	if text != "" {
		t.Errorf("uninstrumented metrics = %q, want empty", text)
	}
	events, err := cl.TraceEvents()
	if err != nil {
		t.Fatalf("uninstrumented trace errored: %v", err)
	}
	if len(events) != 0 {
		t.Errorf("uninstrumented trace returned %d events", len(events))
	}
}

// bigTestRegistry builds a registry several frames large, with
// multi-line histogram families interleaved so page and cut points
// almost certainly land inside one — the fleet's per-shard batch
// histograms are what first pushed a live registry past the one-frame
// budget.
func bigTestRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	for i := 0; i < 400; i++ {
		reg.Counter(fmt.Sprintf("sdb_test_padding_counter_%04d_total", i)).Inc()
		if i%4 == 0 {
			reg.Histogram(fmt.Sprintf("sdb_test_padding_%04d_seconds", i), nil).Observe(0.001)
		}
	}
	if len(reg.Text()) <= 2*bus.MaxPayload {
		t.Fatal("test registry not big enough to force paging")
	}
	return reg
}

// TestClientMetricsPagedAcrossFrames: a registry too big for one frame
// comes back complete — the client walks the family cursor and joins
// the chunks into the exact exposition text, nothing truncated.
func TestClientMetricsPagedAcrossFrames(t *testing.T) {
	reg := bigTestRegistry(t)
	_, cl := startServedObs(t, reg)
	text, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if want := reg.Text(); text != want {
		t.Errorf("paged metrics differ from registry text: got %d bytes, want %d", len(text), len(want))
	}
	if strings.Contains(text, "# truncated") {
		t.Error("paged fetch must not truncate")
	}
	if _, err := obs.ParseText(text); err != nil {
		t.Errorf("paged exposition does not parse: %v", err)
	}
}

// TestMetricsLegacyRequestStillOneFrame: an empty-payload request — a
// pre-cursor client — gets the old single-frame form: a whole-family
// prefix, marked, still parseable.
func TestMetricsLegacyRequestStillOneFrame(t *testing.T) {
	reg := bigTestRegistry(t)
	ctrl, _ := startServedObs(t, reg)
	resp := ctrl.Dispatch(bus.Frame{Cmd: CmdMetrics, Seq: 9})
	r := bus.NewReader(resp.Payload)
	if st := r.U8(); st != StatusOK {
		t.Fatalf("status = %d", st)
	}
	text := r.Str()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(text) > bus.MaxPayload-3 {
		t.Errorf("legacy response %d bytes exceeds the one-frame budget", len(text))
	}
	if !strings.HasSuffix(text, "# truncated\n") {
		t.Errorf("legacy response missing marker; ends %q", text[len(text)-30:])
	}
	if _, err := obs.ParseText(text); err != nil {
		t.Errorf("legacy truncated exposition does not parse: %v", err)
	}
}

// TestMetricsPage unit-tests the cursor walk: chunks join to the full
// text, every cursor advances, and an oversized single family still
// advances instead of looping.
func TestMetricsPage(t *testing.T) {
	reg := bigTestRegistry(t)
	fams := reg.Snapshot()
	var joined strings.Builder
	cursor, pages := 0, 0
	for {
		chunk, next := metricsPage(fams, cursor, bus.MaxPayload-16)
		joined.WriteString(chunk)
		pages++
		if next == 0 {
			break
		}
		if next <= cursor {
			t.Fatalf("cursor did not advance: %d after %d", next, cursor)
		}
		cursor = next
	}
	if pages < 2 {
		t.Fatalf("big registry paged in %d frame(s); want several", pages)
	}
	if joined.String() != reg.Text() {
		t.Error("joined pages differ from registry text")
	}
	// Out-of-range cursor: empty final page, done.
	if chunk, next := metricsPage(fams, len(fams)+5, 100); chunk != "" || next != 0 {
		t.Errorf("out-of-range cursor = (%q, %d), want empty done page", chunk, next)
	}
	// A single family bigger than the budget is cut marked but the
	// cursor still moves past it.
	chunk, next := metricsPage(fams, 0, 10)
	if next != 1 {
		t.Errorf("oversized family cursor = %d, want 1", next)
	}
	if !strings.HasSuffix(chunk, "# truncated\n") {
		t.Errorf("oversized family chunk missing marker: %q", chunk)
	}
}

// TestTruncateExposition unit-tests the cut rule directly: the cut
// keeps whole families, never part of one.
func TestTruncateExposition(t *testing.T) {
	const (
		famA = "# TYPE sdb_a_total counter\nsdb_a_total 1\n"
		famB = "# TYPE sdb_b_total counter\nsdb_b_total 2\n"
		hist = "# TYPE sdb_h_seconds histogram\n" +
			"sdb_h_seconds_bucket{le=\"0.001\"} 3\n" +
			"sdb_h_seconds_bucket{le=\"+Inf\"} 5\n" +
			"sdb_h_seconds_sum 0.25\n" +
			"sdb_h_seconds_count 5\n"
		marker = "# truncated\n"
	)
	if got := truncateExposition(famA+famB, 1000); got != famA+famB {
		t.Errorf("under-budget text modified: %q", got)
	}
	// Budget lands inside famB: only famA survives.
	got := truncateExposition(famA+famB, len(famA)+len(marker)+10)
	if got != famA+marker {
		t.Errorf("mid-family cut = %q", got)
	}
	// Budget lands inside the histogram's bucket lines: a line-boundary
	// cut would emit a histogram without +Inf/sum/count; the family cut
	// must drop the whole histogram instead.
	got = truncateExposition(famA+hist+famB, len(famA)+len(hist)-5)
	if got != famA+marker {
		t.Errorf("mid-histogram cut = %q", got)
	}
	if _, err := obs.ParseText(got); err != nil {
		t.Errorf("mid-histogram cut does not parse: %v", err)
	}
	// Even the first family over budget: marker only.
	if got := truncateExposition(famA+famB, 5); got != marker {
		t.Errorf("nothing-fits case = %q", got)
	}
}

// TestClientTraceRoundTrip: every event field survives the wire,
// including the pack-scoped cell index −1.
func TestClientTraceRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	_, cl := startServedObs(t, reg)
	reg.Tracer().Emit(obs.Event{
		TimeS: 12.5, Scope: "pmic", Kind: "watchdog-fire",
		Cell: -1, V1: 1, V2: 300, Detail: "reverted to uniform",
	})
	reg.Tracer().Emit(obs.Event{
		TimeS: 99.25, Scope: "pmic", Kind: "brownout",
		Cell: 1, V1: 5.5, V2: 4.25,
	})

	events, err := cl.TraceEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	first, second := events[0], events[1]
	if first.Kind != "watchdog-fire" || first.Cell != -1 || first.TimeS != 12.5 ||
		first.V1 != 1 || first.V2 != 300 || first.Detail != "reverted to uniform" ||
		first.Scope != "pmic" {
		t.Errorf("event 0 mangled on the wire: %+v", first)
	}
	if second.Kind != "brownout" || second.Cell != 1 || second.V1 != 5.5 || second.V2 != 4.25 {
		t.Errorf("event 1 mangled on the wire: %+v", second)
	}
	if second.Seq <= first.Seq {
		t.Errorf("sequence order lost: %d then %d", first.Seq, second.Seq)
	}
}

// TestClientTraceKeepsNewestThatFit: when the ring holds more than one
// frame's worth, the response is the newest suffix in chronological
// order.
func TestClientTraceKeepsNewestThatFit(t *testing.T) {
	reg := obs.NewRegistry()
	_, cl := startServedObs(t, reg)
	big := strings.Repeat("d", 300)
	const n = 40 // 40 × ~340 B ≫ one frame
	for i := 0; i < n; i++ {
		reg.Tracer().Emit(obs.Event{
			TimeS: float64(i), Scope: "test", Kind: "filler", Cell: -1, Detail: big,
		})
	}

	events, err := cl.TraceEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || len(events) >= n {
		t.Fatalf("got %d events, want a proper newest-suffix of %d", len(events), n)
	}
	var wire int
	for i, ev := range events {
		wire += 40 + len(ev.Scope) + len(ev.Kind) + len(ev.Detail)
		if i > 0 && ev.Seq != events[i-1].Seq+1 {
			t.Fatalf("gap in returned suffix at %d: %+v", i, ev)
		}
	}
	if wire > bus.MaxPayload-3-2 {
		t.Errorf("returned events need %d wire bytes, over the frame budget", wire)
	}
	if last := events[len(events)-1]; last.TimeS != float64(n-1) {
		t.Errorf("newest event not included: last TimeS = %g, want %d", last.TimeS, n-1)
	}
}
