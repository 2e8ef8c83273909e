// Push subscriptions: the fleet's live telemetry fan-out. A client
// subscribes (CmdSubscribe) to signals — metrics by name/glob, trace
// events, alert transitions — for a device set or the whole fleet, and
// the fleet pushes CmdPush frames from its tick barrier. Three rules
// keep the barrier safe from consumers:
//
//  1. Every subscriber owns a bounded frame queue drained by its own
//     writer goroutine. The barrier enqueues without blocking; a full
//     queue drops the frame and counts it. A stalled subscriber
//     therefore costs the barrier nothing but the encode.
//  2. Metric values travel as XOR deltas of their float64 bit patterns
//     (the store's own trick), unchanged values omitted. A drop breaks
//     the delta chain, so the first metrics frame after any drop is
//     flagged PushFlagReset: bases re-zeroed, dictionary re-announced,
//     the stream re-converges without acknowledgements.
//  3. The shared connection writer is a mutex: responses from Serve
//     and pushes interleave frame-atomically, never byte-interleaved.
package fleet

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"sdb/internal/bus"
	"sdb/internal/obs"
	"sdb/internal/pmic"
)

// deviceSignals is the per-device metric namespace pushed to
// subscribers and read by fleet alert rules, in wire-dictionary order.
var deviceSignals = []string{"soc", "health", "steps", "temp_c", "energy_j"}

// Indices into deviceSig.v / deviceSignals.
const (
	sigSoC = iota
	sigHealth
	sigSteps
	sigTempC
	sigEnergyJ
	nDeviceSignals
)

// fleetSignals is the rollup namespace pushed under PushFleetDevice.
var fleetSignals = []string{
	"fleet_devices", "fleet_running", "fleet_steps_total",
	"fleet_steps_per_sec", "fleet_quarantined", "fleet_alerts_firing",
}

// deviceSig is one device's barrier-time signal sample, written by the
// owning shard during a tick and read at the barrier (the tick's
// WaitGroup orders the two).
type deviceSig struct {
	ok bool
	t  float64
	v  [nDeviceSignals]float64
}

// connWriter serializes frame writes onto one connection so Serve
// responses and subscription pushes interleave frame-atomically.
type connWriter struct {
	mu sync.Mutex
	w  interface{ Write([]byte) (int, error) }
}

func (cw *connWriter) WriteFrame(fr bus.Frame) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return bus.WriteFrame(cw.w, fr)
}

// subDev is a subscription's per-device encoder state: the sim time of
// the last metric push (cadence gate) and the bit patterns of the last
// pushed values (XOR delta bases).
type subDev struct {
	lastPushT float64
	bits      []uint64
	// dev pins the device incarnation these bases belong to (nil for
	// the fleet pseudo-device). A remove + re-add under the same id
	// changes the pointer, and only a stream reset can re-sync bases.
	dev *device
}

// subscription is one live push subscription. The queue and the
// atomic counters are shared with the writer goroutine; everything
// else is guarded by the hub mutex and touched only at the barrier.
type subscription struct {
	id        uint64
	signals   byte
	fleetWide bool
	devs      map[uint16]bool
	cadenceS  float64

	conn *connWriter
	q    chan bus.Frame
	dead atomic.Bool

	// pushed counts frames the barrier produced for this subscriber;
	// dropped counts the subset its full queue rejected. Once the queue
	// drains, delivered = pushed - dropped, exactly.
	pushed  atomic.Uint64
	dropped atomic.Uint64

	// Encoder state (hub-mutex-guarded, barrier-only).
	names        map[string]int
	nameList     []string
	newNames     []pmic.PushName
	track        map[uint16]*subDev
	lastTraceSeq uint64
	needReset    bool
	devKeep      []bool // glob verdict per deviceSignals index
	fleetKeep    []bool // glob verdict per fleetSignals index
}

// wants reports whether the subscription covers a device id.
func (s *subscription) wants(id uint16) bool {
	return s.fleetWide || s.devs[id]
}

// subHub is the fleet's subscription registry plus the shared
// publish/drop counters.
type subHub struct {
	mu    sync.Mutex
	subs  map[uint64]*subscription
	next  uint64
	qCap  int
	subsG *obs.Gauge
	pushC *obs.Counter
	dropC *obs.Counter
}

func (h *subHub) init(reg *obs.Registry, qCap int) {
	if qCap <= 0 {
		qCap = 64
	}
	h.subs = make(map[uint64]*subscription)
	h.qCap = qCap
	h.subsG = reg.Gauge("sdb_fleet_subscribers")
	h.pushC = reg.Counter("sdb_fleet_push_frames_total")
	h.dropC = reg.Counter("sdb_fleet_push_dropped_total")
}

// active reports whether any live subscription exists, and whether any
// of them wants metric signals (the tick barrier skips per-device
// signal collection entirely when nothing needs it).
func (h *subHub) wantMetrics() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.subs {
		if !s.dead.Load() && s.signals&pmic.SubSigMetrics != 0 {
			return true
		}
	}
	return false
}

// maxSubs bounds the registry; beyond it Subscribe answers
// StatusInternal (retryable — subscriptions come and go).
const maxSubs = 4096

// subscribe handles one CmdSubscribe frame for a connection.
func (f *Fleet) subscribe(req bus.Frame, cw *connWriter) bus.Frame {
	if f.draining.Load() {
		return pmic.Reply(req, pmic.StatusDraining)
	}
	spec, ok := pmic.DecodeSubscribe(req.Payload)
	if !ok || spec.Signals == 0 {
		return pmic.Reply(req, pmic.StatusBadArgs)
	}
	var devs map[uint16]bool
	if !spec.Fleet {
		devs = make(map[uint16]bool, len(spec.Devices))
		for _, id := range spec.Devices {
			devs[id] = true
		}
	}
	s := &subscription{
		signals:   spec.Signals,
		fleetWide: spec.Fleet,
		devs:      devs,
		cadenceS:  spec.CadenceS,
		conn:      cw,
		q:         make(chan bus.Frame, f.subs.qCap),
		names:     make(map[string]int),
		track:     make(map[uint16]*subDev),
		devKeep:   globKeep(spec.Globs, deviceSignals),
		fleetKeep: globKeep(spec.Globs, fleetSignals),
	}
	h := &f.subs
	h.mu.Lock()
	if len(h.subs) >= maxSubs {
		h.mu.Unlock()
		return pmic.Reply(req, pmic.StatusInternal)
	}
	h.next++
	s.id = h.next
	h.subs[s.id] = s
	h.subsG.Set(float64(len(h.subs)))
	h.mu.Unlock()
	go s.run()
	return pmic.SubscribeReply(req, s.id)
}

// unsubscribe handles one CmdUnsubscribe frame. Only the connection
// that opened a subscription may close it.
func (f *Fleet) unsubscribe(req bus.Frame, cw *connWriter) bus.Frame {
	id, ok := pmic.DecodeUnsubscribe(req.Payload)
	if !ok {
		return pmic.Reply(req, pmic.StatusBadArgs)
	}
	h := &f.subs
	h.mu.Lock()
	s := h.subs[id]
	if s == nil || s.conn != cw {
		h.mu.Unlock()
		return pmic.Reply(req, pmic.StatusBadIndex)
	}
	delete(h.subs, id)
	close(s.q)
	h.subsG.Set(float64(len(h.subs)))
	h.mu.Unlock()
	return pmic.Reply(req, pmic.StatusOK)
}

// dropConn tears down every subscription a closing connection owns.
func (h *subHub) dropConn(cw *connWriter) {
	h.mu.Lock()
	for id, s := range h.subs {
		if s.conn == cw {
			delete(h.subs, id)
			close(s.q)
		}
	}
	h.subsG.Set(float64(len(h.subs)))
	h.mu.Unlock()
}

// run is the subscription's writer goroutine: it drains the queue onto
// the shared connection writer until the queue closes. A write error
// marks the subscription dead; remaining frames drain and drop on the
// floor so the enqueuing barrier never notices.
func (s *subscription) run() {
	for fr := range s.q {
		if s.dead.Load() {
			continue
		}
		if err := s.conn.WriteFrame(fr); err != nil {
			s.dead.Store(true)
		}
	}
}

// enqueueLocked offers one frame to a subscriber without ever
// blocking: a full queue drops the frame and counts it. Returns false
// on drop. Called with the hub mutex held.
func (h *subHub) enqueueLocked(s *subscription, fr bus.Frame) bool {
	s.pushed.Add(1)
	h.pushC.Inc()
	select {
	case s.q <- fr:
		return true
	default:
		s.dropped.Add(1)
		h.dropC.Inc()
		return false
	}
}

// publishLocked runs the push fan-out at the tick barrier: regMu is
// read-held (membership frozen, devices idle), trans are this
// barrier's alert transitions, running is the barrier's still-running
// device count. Everything here is encode-and-enqueue; nothing blocks.
func (f *Fleet) publishLocked(trans []pmic.AlertTransition, running int) {
	h := &f.subs
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.subs) == 0 {
		return
	}

	// The fleet rollup block's time is the newest live-device sample.
	var maxT float64
	for _, d := range f.byID {
		if d.live() && d.sig.t > maxT {
			maxT = d.sig.t
		}
	}
	var evs []obs.Event // the trace ring snapshot, taken on first use
	for _, s := range h.subs {
		if s.dead.Load() {
			continue
		}
		if s.signals&pmic.SubSigMetrics != 0 {
			f.pushMetricsLocked(s, maxT, running)
		}
		if s.signals&pmic.SubSigTrace != 0 {
			if evs == nil {
				evs = f.om.tracer.Events()
			}
			f.pushTraceLocked(s, evs)
		}
		if s.signals&pmic.SubSigAlerts != 0 && len(trans) > 0 {
			f.pushAlertsLocked(s, trans)
		}
	}
}

// pushMetricsLocked encodes and enqueues one subscription's metric
// frames for this barrier: the fleet rollup block first, then, in id
// order, one block per covered live device whose clock advanced past
// the cadence gate. Blocks carry only changed values as XOR deltas —
// except after a drop, when the first frame of the next barrier
// re-bases on zero (PushFlagReset) and re-announces the dictionary.
func (f *Fleet) pushMetricsLocked(s *subscription, maxT float64, running int) {
	// Backed-up subscriber fast path: with no room for even one frame,
	// encoding the whole fleet would be wasted barrier time — count one
	// synthetic pushed+dropped frame (the delivered = pushed - dropped
	// ledger stays exact) and stream-reset when room returns. This is
	// what keeps a stalled consumer O(1) per barrier instead of
	// O(devices).
	if len(s.q) == cap(s.q) {
		s.pushed.Add(1)
		f.subs.pushC.Inc()
		s.dropped.Add(1)
		f.subs.dropC.Inc()
		s.needReset = true
		return
	}
	reset := s.needReset
	if !reset {
		// A tracked id now backed by a different device is a new
		// incarnation (remove + re-add under a recycled id): its delta
		// base no longer matches the client's. Only a stream reset
		// re-syncs both sides.
		for _, d := range f.byID {
			if td := s.track[d.id]; td != nil && td.dev != d && d.live() && s.wants(d.id) {
				reset = true
				break
			}
		}
	}
	if reset {
		s.needReset = false
		for id, td := range s.track {
			if id != pmic.PushFleetDevice && f.lookup(id) == nil {
				delete(s.track, id) // churned away; drop the dead state
				continue
			}
			clear(td.bits)
			td.lastPushT = -1
		}
		s.newNames = s.newNames[:0]
		for id, name := range s.nameList {
			s.newNames = append(s.newNames, pmic.PushName{ID: id, Name: name})
		}
	}

	// Every block of a reset barrier re-sends its values; only the
	// first frame carries the flag.
	var mp pmic.MetricsPush
	first := true
	flush := func() bool {
		if mp.Blocks() == 0 {
			return true
		}
		fr := mp.Frame(s.id, reset && first, s.dropped.Load(), s.newNames)
		first = false
		s.newNames = s.newNames[:0]
		ok := f.subs.enqueueLocked(s, fr)
		if !ok {
			s.needReset = true
		}
		return ok
	}

	// Fleet rollup block, then device blocks in id order.
	var firing float64
	if f.alerts != nil {
		firing = float64(f.alerts.totalFiring)
	}
	fleetVals := [...]float64{
		float64(len(f.byID)), float64(running), float64(f.steps.Load()),
		f.om.rate.Value(), float64(f.quarCount.Load()), firing,
	}
	f.encodeBlock(s, &mp, pmic.PushFleetDevice, nil, maxT, reset,
		fleetSignals, s.fleetKeep, fleetVals[:])
	for _, d := range f.byID {
		if !d.live() || !s.wants(d.id) {
			continue
		}
		if mp.Full() {
			if !flush() {
				return // dropped: stop, next barrier resets
			}
		}
		f.encodeBlock(s, &mp, d.id, d, d.sig.t, reset,
			deviceSignals, s.devKeep, d.sig.v[:])
	}
	flush()
}

// encodeBlock appends one device's changed values to the pending
// frame, honoring the cadence gate and the glob filter.
func (f *Fleet) encodeBlock(s *subscription, mp *pmic.MetricsPush,
	dev uint16, d *device, t float64, reset bool, sigNames []string, keep []bool, vals []float64) {
	td := s.track[dev]
	if td == nil {
		td = &subDev{lastPushT: -1}
		s.track[dev] = td
	}
	td.dev = d
	if t <= td.lastPushT {
		return // clock stopped (device done) — nothing new
	}
	if td.lastPushT >= 0 && t-td.lastPushT < s.cadenceS {
		return // cadence gate: not due yet
	}

	// Gather changed (or, on reset, all kept) values first; an
	// all-unchanged block is skipped entirely.
	var idsBuf [16]int
	var deltaBuf [16]uint64
	n := 0
	for i, name := range sigNames {
		if !keep[i] {
			continue
		}
		id, ok := s.names[name]
		if !ok {
			id = len(s.nameList)
			s.names[name] = id
			s.nameList = append(s.nameList, name)
			s.newNames = append(s.newNames, pmic.PushName{ID: id, Name: name})
		}
		for len(td.bits) <= id {
			td.bits = append(td.bits, 0)
		}
		bits := math.Float64bits(vals[i])
		delta := td.bits[id] ^ bits
		if delta == 0 && !reset {
			continue
		}
		td.bits[id] = bits
		idsBuf[n] = id
		deltaBuf[n] = delta
		n++
	}
	if n == 0 {
		td.lastPushT = t
		return
	}
	mp.Block(dev, t, idsBuf[:n], deltaBuf[:n])
	td.lastPushT = t
}

// pushTraceLocked pushes fleet-scope trace events newer than the
// subscription's high-water mark, chunked to frames. The mark advances
// whether or not a frame fit the queue — missed events are what the
// drop counters account for.
func (f *Fleet) pushTraceLocked(s *subscription, evs []obs.Event) {
	start := 0
	for start < len(evs) && evs[start].Seq <= s.lastTraceSeq {
		start++
	}
	evs = evs[start:]
	if len(evs) == 0 {
		return
	}
	s.lastTraceSeq = evs[len(evs)-1].Seq
	for len(evs) > 0 {
		fr, n := pmic.TracePush(s.id, s.dropped.Load(), evs)
		if !f.subs.enqueueLocked(s, fr) {
			return
		}
		evs = evs[n:]
	}
}

// pushAlertsLocked pushes this barrier's alert transitions that fall
// inside the subscription's device scope, chunked to frames.
func (f *Fleet) pushAlertsLocked(s *subscription, trans []pmic.AlertTransition) {
	sel := trans
	if !s.fleetWide {
		sel = nil
		for _, tr := range trans {
			if s.devs[tr.Device] {
				sel = append(sel, tr)
			}
		}
	}
	for len(sel) > 0 {
		fr, n := pmic.AlertPush(s.id, s.dropped.Load(), sel)
		if !f.subs.enqueueLocked(s, fr) {
			return
		}
		sel = sel[n:]
	}
}

// SubStats snapshots the live subscriptions (lowest id first) — the
// server-side ground truth for drop accounting, also served over the
// wire as the FleetSubs info mode.
func (f *Fleet) SubStats() []pmic.SubStat { return f.subStatsFrom(0) }

// subStatsFrom snapshots the live subscriptions from id cursor on,
// lowest first, found by binary search in the sorted ids.
func (f *Fleet) subStatsFrom(cursor uint64) []pmic.SubStat {
	h := &f.subs
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]pmic.SubStat, 0, len(h.subs))
	for _, s := range h.subs {
		out = append(out, pmic.SubStat{ID: s.id, Signals: s.signals, FleetWide: s.fleetWide,
			Devices: len(s.devs), Pushed: s.pushed.Load(), Dropped: s.dropped.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out[sort.Search(len(out), func(i int) bool { return out[i].ID >= cursor }):]
}

// globKeep evaluates a glob list against a fixed signal namespace:
// empty list keeps everything, otherwise a name is kept when any glob
// matches.
func globKeep(globs, names []string) []bool {
	keep := make([]bool, len(names))
	for i, name := range names {
		if len(globs) == 0 {
			keep[i] = true
			continue
		}
		for _, g := range globs {
			if matchGlob(g, name) {
				keep[i] = true
				break
			}
		}
	}
	return keep
}

// matchGlob reports whether s matches pat, where '*' matches any run
// of characters (the only metacharacter).
func matchGlob(pat, s string) bool {
	// Iterative backtracking: remember the last '*' and retry from it.
	pi, si := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == s[si]):
			pi++
			si++
		case pi < len(pat) && pat[pi] == '*':
			star, mark = pi, si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '*' {
		pi++
	}
	return pi == len(pat)
}
