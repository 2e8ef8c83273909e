package pmic

import (
	"fmt"
	"math"
	"time"

	"sdb/internal/bus"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
)

// SubscriptionSpec describes what a Subscribe call asks the fleet
// endpoint to push.
type SubscriptionSpec struct {
	// Fleet subscribes to every device, present and future; otherwise
	// Devices lists explicit ids (devices need not exist yet — a
	// subscription survives churn).
	Fleet   bool
	Devices []uint16
	// Signals is a SubSig* bit set; zero defaults to SubSigMetrics.
	Signals byte
	// CadenceS is the minimum sim-time gap between metric pushes for
	// one device; <= 0 pushes at every tick barrier.
	CadenceS float64
	// Globs filters metric names ('*' wildcards, e.g. "soc",
	// "fleet_*"); empty keeps every signal.
	Globs []string
}

// PushSample is one named metric value inside a push.
type PushSample struct {
	Name  string
	Value float64
}

// PushDevice is one device's metric block inside a push. Device
// PushFleetDevice (0xFFFF) is the fleet-level rollup. Only values that
// changed since the previous delivered push are listed.
type PushDevice struct {
	Device uint16
	TimeS  float64
	Values []PushSample
}

// AlertTransition is one fleet alert edge: a rule firing or resolving
// on one device at barrier sim time TimeS. The fleet logs it and
// pushes it in PushAlert frames.
type AlertTransition struct {
	Device    uint16
	TimeS     float64
	Rule      string
	From, To  ts.AlertState
	Value     float64
	Threshold float64
}

// String renders the transition in the fleet's canonical log form —
// the line format the determinism criterion compares byte-for-byte.
func (tr AlertTransition) String() string {
	return fmt.Sprintf("t=%.6f dev=%d rule=%s %s->%s value=%g threshold=%g",
		tr.TimeS, tr.Device, tr.Rule, tr.From, tr.To, tr.Value, tr.Threshold)
}

// Push is one decoded server-push frame.
type Push struct {
	Kind    byte // PushMetrics, PushTrace, or PushAlert
	SubID   uint64
	Reset   bool // PushMetrics only: delta bases were re-zeroed
	Dropped uint64
	Devices []PushDevice      // PushMetrics
	Events  []obs.Event       // PushTrace
	Alerts  []AlertTransition // PushAlert
}

// subDecodeState is the per-subscription decoder state: the name
// dictionary the server announced and, per device, the float64 bit
// patterns of the last decoded values (the XOR delta bases).
type subDecodeState struct {
	names []string
	bits  map[uint16][]uint64
}

// maxPushBuf bounds pushes buffered while request/response calls are
// in flight; beyond it the oldest buffered push is discarded (the
// reset protocol re-converges the metric state regardless).
const maxPushBuf = 1024

// Subscribe opens a push subscription on a fleet endpoint and returns
// its id. Pushes arrive as CmdPush frames on this connection; read
// them with ReadPush. Request/response calls keep working while
// subscribed — pushes that interleave with a call are buffered for the
// next ReadPush.
func (c *Client) Subscribe(spec SubscriptionSpec) (uint64, error) {
	sig := spec.Signals
	if sig == 0 {
		sig = SubSigMetrics
	}
	var w bus.Writer
	if spec.Fleet {
		w.U8(SubScopeFleet).U8(sig).F64(spec.CadenceS)
	} else {
		w.U8(SubScopeDevices).U8(sig).F64(spec.CadenceS).UVarint(uint64(len(spec.Devices)))
		for _, id := range spec.Devices {
			w.U16(id)
		}
	}
	w.UVarint(uint64(len(spec.Globs)))
	for _, g := range spec.Globs {
		w.Str(g)
	}
	// Arm the push buffer before the request goes out: the server may
	// push from a tick barrier before its subscribe response reaches
	// us, and those frames must be buffered, not discarded as stale.
	c.mu.Lock()
	if c.subs == nil {
		c.subs = make(map[uint64]*subDecodeState)
	}
	c.mu.Unlock()
	var id uint64
	err := c.get(CmdSubscribe, w.Bytes(), "subscribe", func(r *bus.Reader) error {
		id = r.UVarint()
		return nil
	})
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.subState(id)
	c.mu.Unlock()
	return id, nil
}

// DecodeSubscribe decodes a CmdSubscribe request. Unknown signal bits
// are dropped; a zero signal set is left for the server to refuse.
func DecodeSubscribe(p []byte) (SubscriptionSpec, bool) {
	r := bus.NewReader(p)
	scope := r.U8()
	spec := SubscriptionSpec{
		Fleet:    scope == SubScopeFleet,
		Signals:  r.U8() & (SubSigMetrics | SubSigTrace | SubSigAlerts),
		CadenceS: r.F64(),
	}
	switch scope {
	case SubScopeFleet:
	case SubScopeDevices:
		n := int(r.UVarint())
		if n > r.Remaining()/2 {
			return spec, false
		}
		spec.Devices = make([]uint16, n)
		for i := range spec.Devices {
			spec.Devices[i] = r.U16()
		}
	default:
		return spec, false
	}
	nGlobs := int(r.UVarint())
	for i := 0; i < nGlobs && r.Err() == nil; i++ {
		spec.Globs = append(spec.Globs, r.Str())
	}
	return spec, r.Err() == nil
}

// SubscribeReply encodes the answer to CmdSubscribe: the new
// subscription's id.
func SubscribeReply(req bus.Frame, id uint64) bus.Frame {
	var w bus.Writer
	w.U8(StatusOK).UVarint(id)
	return reply(req, w.Bytes())
}

// Unsubscribe tears down a subscription by id. Pushes already in
// flight may still arrive and decode; they are safe to ignore.
func (c *Client) Unsubscribe(id uint64) error {
	var w bus.Writer
	w.UVarint(id)
	err := c.get(CmdUnsubscribe, w.Bytes(), "", nil)
	if err == nil {
		c.mu.Lock()
		delete(c.subs, id)
		c.mu.Unlock()
	}
	return err
}

// DecodeUnsubscribe decodes a CmdUnsubscribe request: the id.
func DecodeUnsubscribe(p []byte) (uint64, bool) {
	r := bus.NewReader(p)
	id := r.UVarint()
	return id, r.Err() == nil
}

// ReadPush returns the next server push: a buffered one if a
// request/response call drained it off the wire first, otherwise the
// next CmdPush frame read from the transport. timeout bounds the read
// when the transport supports deadlines (0 waits forever); a timeout
// surfaces as the transport's deadline error (os.ErrDeadlineExceeded
// under net.Conn). ReadPush and the client's calls share one mutex —
// use them from one goroutine, as the strictly-ordered wire demands.
func (c *Client) ReadPush(timeout time.Duration) (*Push, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pushBuf) > 0 {
		p := c.pushBuf[0]
		c.pushBuf = c.pushBuf[1:]
		return p, nil
	}
	if c.subs == nil {
		return nil, fmt.Errorf("pmic: ReadPush without a subscription")
	}
	if timeout > 0 {
		if d, ok := c.rw.(deadliner); ok {
			if err := d.SetDeadline(time.Now().Add(timeout)); err != nil {
				return nil, fmt.Errorf("pmic: push deadline: %w", err)
			}
			defer d.SetDeadline(time.Time{})
		}
	}
	for drained := 0; drained <= maxStale; {
		fr, err := c.sc.ReadFrame()
		if err != nil {
			return nil, fmt.Errorf("pmic: push read: %w", err)
		}
		if fr.Cmd != CmdPush {
			// A stale response from an earlier timed-out call; drop it
			// like the call path would.
			c.om.staleFrames.Inc()
			drained++
			continue
		}
		return c.decodePush(fr)
	}
	return nil, ErrStaleFlood
}

// bufferPush decodes a push frame read by the request/response path
// and queues it for ReadPush. Called with c.mu held. Undecodable
// frames are dropped silently — the link already survives noise.
func (c *Client) bufferPush(fr bus.Frame) {
	p, err := c.decodePush(fr)
	if err != nil {
		c.om.staleFrames.Inc()
		return
	}
	if len(c.pushBuf) >= maxPushBuf {
		c.pushBuf = c.pushBuf[1:]
	}
	c.pushBuf = append(c.pushBuf, p)
}

// subState returns (creating on demand) the decode state for a
// subscription id. On-demand creation covers pushes that arrive before
// the Subscribe response does: both sides start from zeroed delta
// bases, so the stream decodes consistently.
func (c *Client) subState(id uint64) *subDecodeState {
	st := c.subs[id]
	if st == nil {
		st = &subDecodeState{bits: make(map[uint16][]uint64)}
		c.subs[id] = st
	}
	return st
}

// PushName announces one PushMetrics dictionary entry: the metric id
// a subscription's later frames use for Name.
type PushName struct {
	ID   int
	Name string
}

// MetricsPush assembles one PushMetrics frame: device blocks first,
// then Frame puts the header ahead of them.
type MetricsPush struct {
	blocks bus.Writer
	n      int
}

// Block appends one device's values at sim time t: each as its metric
// id and the XOR of its float64 bits against the previous push
// (deltas[i] goes with ids[i]).
func (m *MetricsPush) Block(dev uint16, t float64, ids []int, deltas []uint64) {
	m.blocks.U16(dev).F64(t).UVarint(uint64(len(ids)))
	for i, id := range ids {
		m.blocks.UVarint(uint64(id)).UVarint(deltas[i])
	}
	m.n++
}

// Blocks is the number of blocks appended since the last Frame.
func (m *MetricsPush) Blocks() int { return m.n }

// Full reports whether the blocks have spent the frame's budget, which
// keeps headroom for the header and dictionary: send the frame before
// appending another block.
func (m *MetricsPush) Full() bool { return len(m.blocks.Bytes()) > bus.MaxPayload-512 }

// Frame encodes the PushMetrics frame of subscription sub: flags
// (PushFlagReset when reset), the subscription's dropped-frame count,
// the dictionary announcements, then the blocks. It empties m.
func (m *MetricsPush) Frame(sub uint64, reset bool, dropped uint64, names []PushName) bus.Frame {
	var w bus.Writer
	w.U8(PushMetrics)
	var flags byte
	if reset {
		flags |= PushFlagReset
	}
	w.U8(flags).UVarint(sub).UVarint(dropped).UVarint(uint64(len(names)))
	for _, ann := range names {
		w.UVarint(uint64(ann.ID)).Str(ann.Name)
	}
	w.UVarint(uint64(m.n))
	payload := append(w.Bytes(), m.blocks.Bytes()...)
	*m = MetricsPush{}
	return bus.Frame{Cmd: CmdPush, Payload: payload}
}

// pushBudget is a push frame's payload budget for its records, under
// the cap by more than its header.
const pushBudget = bus.MaxPayload - 64

// TracePush encodes the PushTrace frame of subscription sub holding
// the leading events that fit one frame, and returns how many it took:
// at least one, so an oversize event reaches the frame cap, which
// rejects it.
func TracePush(sub, dropped uint64, evs []obs.Event) (bus.Frame, int) {
	budget, n := pushBudget, 0
	for n < len(evs) && budget-encodedEventLen(evs[n]) >= 0 {
		budget -= encodedEventLen(evs[n])
		n++
	}
	n = max(n, 1)
	var w bus.Writer
	w.U8(PushTrace).UVarint(sub).UVarint(dropped).U16(uint16(n))
	for _, ev := range evs[:n] {
		encodeEvent(&w, ev)
	}
	return bus.Frame{Cmd: CmdPush, Payload: w.Bytes()}, n
}

// AlertPush encodes the PushAlert frame of subscription sub holding
// the leading transitions that fit one frame, and returns how many it
// took (at least one).
func AlertPush(sub, dropped uint64, trs []AlertTransition) (bus.Frame, int) {
	// Each: device, time, rule (2 + its length), from, to, value, threshold.
	const fixed = 2 + 8 + 2 + 1 + 1 + 8 + 8
	budget, n := pushBudget, 0
	for n < len(trs) && budget-(fixed+len(trs[n].Rule)) >= 0 {
		budget -= fixed + len(trs[n].Rule)
		n++
	}
	n = max(n, 1)
	var w bus.Writer
	w.U8(PushAlert).UVarint(sub).UVarint(dropped).UVarint(uint64(n))
	for _, tr := range trs[:n] {
		w.U16(tr.Device).F64(tr.TimeS).Str(tr.Rule)
		w.U8(byte(tr.From)).U8(byte(tr.To))
		w.F64(tr.Value).F64(tr.Threshold)
	}
	return bus.Frame{Cmd: CmdPush, Payload: w.Bytes()}, n
}

// decodePush decodes one CmdPush frame. Called with c.mu held.
func (c *Client) decodePush(fr bus.Frame) (*Push, error) {
	r := bus.NewReader(fr.Payload)
	p := &Push{Kind: r.U8()}
	if p.Kind == PushMetrics {
		p.Reset = r.U8()&PushFlagReset != 0
	}
	p.SubID, p.Dropped = r.UVarint(), r.UVarint()
	switch p.Kind {
	case PushMetrics:
		st := c.subState(p.SubID)
		if p.Reset {
			for dev := range st.bits {
				clear(st.bits[dev])
			}
		}
		// The server numbers metric ids densely from 0, so a frame can
		// only announce ids below the dictionary's size plus its own
		// announcement count, which each cost at least two bytes.
		nNew := r.UVarint()
		if nNew > uint64(r.Remaining()/2) {
			return nil, fmt.Errorf("pmic: push announces %d metrics in %d bytes", nNew, r.Remaining())
		}
		limit := uint64(len(st.names)) + nNew
		for i := uint64(0); i < nNew && r.Err() == nil; i++ {
			id := r.UVarint()
			name := r.Str()
			if id >= limit {
				return nil, fmt.Errorf("pmic: push announces metric id %d past %d", id, limit)
			}
			for uint64(len(st.names)) <= id {
				st.names = append(st.names, "")
			}
			st.names[id] = name
		}
		nDev := int(r.UVarint())
		for i := 0; i < nDev && r.Err() == nil; i++ {
			pd := PushDevice{Device: r.U16(), TimeS: r.F64()}
			nVals := int(r.UVarint())
			base := st.bits[pd.Device]
			for j := 0; j < nVals && r.Err() == nil; j++ {
				id := r.UVarint()
				delta := r.UVarint()
				if id >= uint64(len(st.names)) || st.names[id] == "" {
					return nil, fmt.Errorf("pmic: push references unknown metric id %d", id)
				}
				for uint64(len(base)) <= id {
					base = append(base, 0)
				}
				base[id] ^= delta
				pd.Values = append(pd.Values, PushSample{
					Name:  st.names[id],
					Value: math.Float64frombits(base[id]),
				})
			}
			st.bits[pd.Device] = base
			p.Devices = append(p.Devices, pd)
		}
	case PushTrace:
		p.Events = decodeEvents(r, int(r.U16()))
	case PushAlert:
		for n := r.UVarint(); n > 0 && r.Err() == nil; n-- {
			p.Alerts = append(p.Alerts, AlertTransition{Device: r.U16(), TimeS: r.F64(), Rule: r.Str(),
				From: ts.AlertState(r.U8()), To: ts.AlertState(r.U8()), Value: r.F64(), Threshold: r.F64()})
		}
	default:
		return nil, fmt.Errorf("pmic: unknown push kind %#02x", p.Kind)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("pmic: malformed push frame: %w", err)
	}
	return p, nil
}

// SubStat is one live subscription as reported by a FleetSubs query:
// the push/drop counters are the server-side ground truth for
// slow-consumer accounting (delivered = Pushed - Dropped once the
// queue has drained).
type SubStat struct {
	ID        uint64
	Signals   byte
	FleetWide bool
	Devices   int
	Pushed    uint64
	Dropped   uint64
}

// FleetSubsReply encodes the answer to a FleetSubs: a count, then
// each subscription's id, signals, scope, device count and counters.
func FleetSubsReply(req bus.Frame, subs []SubStat) bus.Frame {
	var w bus.Writer
	w.U8(StatusOK).UVarint(uint64(len(subs)))
	for _, s := range subs {
		w.UVarint(s.ID).U8(s.Signals).U8(boolByte(s.FleetWide))
		w.UVarint(uint64(s.Devices)).UVarint(s.Pushed).UVarint(s.Dropped)
	}
	return reply(req, w.Bytes())
}

// FleetSubs lists the fleet endpoint's live push subscriptions. A
// plain single-device server answers StatusBadCmd.
func (c *Client) FleetSubs() (out []SubStat, err error) {
	err = c.get(CmdFleetInfo, []byte{FleetSubs}, "fleet subs", func(r *bus.Reader) error {
		for n := r.UVarint(); n > 0 && r.Err() == nil; n-- {
			out = append(out, SubStat{ID: r.UVarint(), Signals: r.U8(), FleetWide: r.U8() != 0,
				Devices: int(r.UVarint()), Pushed: r.UVarint(), Dropped: r.UVarint()})
		}
		return nil
	})
	return out, err
}
