package pmic_test

// Wire-protocol tests for the observability commands: CmdMetrics and
// CmdTrace round trips over a served pipe, metrics paging and the
// trace's one-frame bound, and the uninstrumented-controller answers.

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"sdb/internal/battery"
	"sdb/internal/bus"
	"sdb/internal/firmware"
	"sdb/internal/obs"
	"sdb/internal/pmic"
)

// startServedObs spins up a controller bound to reg (nil = off) served
// over a net.Pipe and returns a connected client.
func startServedObs(t *testing.T, reg *obs.Registry) (*firmware.Controller, *pmic.Client) {
	t.Helper()
	cells := []*battery.Cell{
		battery.MustNew(battery.MustByName("QuickCharge-2000")),
		battery.MustNew(battery.MustByName("Standard-2000")),
	}
	pack, err := battery.NewPack(cells...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := firmware.DefaultConfig(pack)
	cfg.Obs = reg
	ctrl, err := firmware.NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	go serveConn(ctrl, a)
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return ctrl, pmic.NewClient(b)
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

// TestMetricsLegacyRequestStillOneFrame: an empty-payload request —
// a pre-cursor client — is refused with StatusBadArgs in one frame
// rather than answered with a single-frame prefix it would misread.
func TestMetricsLegacyRequestStillOneFrame(t *testing.T) {
	reg := bigTestRegistry(t)
	ctrl, _ := startServedObs(t, reg)
	resp := ctrl.Dispatch(bus.Frame{Cmd: pmic.CmdMetrics, Seq: 9})
	if len(resp.Payload) != 1 || resp.Payload[0] != pmic.StatusBadArgs {
		t.Fatalf("cursor-less metrics request answered %x, want StatusBadArgs alone", resp.Payload)
	}
}

// metricsPage fetches one CmdMetrics page of reg through the server
// encoder and checks it fits one frame.
func metricsPage(t *testing.T, reg *obs.Registry, cursor uint64) (chunk string, next uint64) {
	t.Helper()
	fr := pmic.MetricsReply(bus.Frame{}, reg, cursor)
	if len(fr.Payload) > bus.MaxPayload {
		t.Fatalf("page at %d: %d bytes, over the %d cap", cursor, len(fr.Payload), bus.MaxPayload)
	}
	r := bus.NewReader(fr.Payload)
	if st := r.U8(); st != pmic.StatusOK {
		t.Fatalf("page at %d: status %#x", cursor, st)
	}
	next, chunk = r.UVarint(), r.Str()
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("page at %d malformed: %v, %d bytes left", cursor, r.Err(), r.Remaining())
	}
	return chunk, next
}

// TestMetricsPage unit-tests the cursor walk: chunks join to the full
// text, every cursor advances, and an oversized single family still
// advances instead of looping.
func TestMetricsPage(t *testing.T) {
	reg := bigTestRegistry(t)
	var joined strings.Builder
	var cursor uint64
	pages := 0
	for {
		chunk, next := metricsPage(t, reg, cursor)
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
	if chunk, next := metricsPage(t, reg, uint64(len(reg.Snapshot())+5)); chunk != "" || next != 0 {
		t.Errorf("out-of-range cursor = (%q, %d), want empty done page", chunk, next)
	}
	// A single family bigger than a frame is marked in its place and
	// the cursor still moves past it.
	big := obs.NewRegistry()
	big.Counter("sdb_a_total").Inc()
	big.Counter("sdb_b_" + strings.Repeat("x", bus.MaxPayload) + "_total").Inc()
	big.Counter("sdb_c_total").Inc()
	if chunk, next := metricsPage(t, big, 1); chunk != "# truncated\n" || next != 2 {
		t.Errorf("oversized family page = (%q, %d), want the marker and cursor 2", chunk, next)
	}
	if chunk, next := metricsPage(t, big, 0); !strings.HasPrefix(chunk, "# TYPE sdb_a_total") || next != 1 {
		t.Errorf("page before the oversized family = (%q, %d), want sdb_a_total alone and cursor 1", chunk, next)
	}
}

// TestTruncateExposition: a page ends at a whole family, never inside
// one, so every page parses on its own — a line-boundary cut would
// emit a histogram without its +Inf bucket, sum and count.
func TestTruncateExposition(t *testing.T) {
	reg := bigTestRegistry(t)
	var cursor uint64
	for {
		chunk, next := metricsPage(t, reg, cursor)
		fams, err := obs.ParseText(chunk)
		if err != nil {
			t.Fatalf("page at %d does not parse: %v", cursor, err)
		}
		if !strings.HasPrefix(chunk, "# TYPE ") || strings.Count(chunk, "# TYPE ") != len(fams) {
			t.Fatalf("page at %d holds part of a family", cursor)
		}
		for _, f := range fams {
			if f.Kind == obs.KindHistogram && !strings.Contains(chunk, f.Name+"_count ") {
				t.Fatalf("page at %d cuts histogram %s short", cursor, f.Name)
			}
		}
		if next == 0 {
			break
		}
		cursor = next
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
