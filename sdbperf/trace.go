package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Span lanes (Chrome trace "tid"): the main goroutine that builds, ticks
// and checks, the operator client, and the push subscriber.
const (
	laneMain = 1 + iota
	laneOperator
	laneSubscriber
)

// tracer keeps spans in memory for a -trace 1 run. The benchmark
// records spans only around its own calls into each layer's public
// functions; nothing inside the program is instrumented. Tracing is
// switched on and off per unit of work (a figures pass, a fleet
// episode, a paced tick) so that traced and untraced units of one run
// give the tracing overhead. A nil *tracer records nothing.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	mu     sync.Mutex
	spans  []span
}

type span struct {
	name, cat  string
	lane       int
	start, end time.Time
	args       map[string]any
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// active reports whether spans recorded now are kept.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) set(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// add keeps one span when tracing is active.
func (t *tracer) add(name, cat string, lane int, start, end time.Time, args map[string]any) {
	if !t.active() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, cat: cat, lane: lane, start: start, end: end, args: args})
	t.mu.Unlock()
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; timestamps and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the kept spans as Chrome trace-event JSON (it
// opens in chrome://tracing or Perfetto) with the run's per-layer
// metrics under "otherData".
func (t *tracer) writeChrome(path string, layer map[string]metric) error {
	t.mu.Lock()
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, chromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X", PID: 1, TID: s.lane,
			TS:   float64(s.start.Sub(t.origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: s.args,
		})
	}
	t.mu.Unlock()
	doc := struct {
		TraceEvents     []chromeEvent     `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]metric `json:"otherData"`
	}{evs, "ms", layer}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
