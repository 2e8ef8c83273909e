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

// PushAlertTransition is one fleet alert edge inside a push.
type PushAlertTransition struct {
	Device    uint16
	TimeS     float64
	Rule      string
	From, To  ts.AlertState
	Value     float64
	Threshold float64
}

// Push is one decoded server-push frame.
type Push struct {
	Kind    byte // PushMetrics, PushTrace, or PushAlert
	SubID   uint64
	Reset   bool // PushMetrics only: delta bases were re-zeroed
	Dropped uint64
	Devices []PushDevice          // PushMetrics
	Events  []obs.Event           // PushTrace
	Alerts  []PushAlertTransition // PushAlert
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
		w.U8(SubScopeFleet)
	} else {
		w.U8(SubScopeDevices)
	}
	w.U8(sig)
	w.F64(spec.CadenceS)
	if !spec.Fleet {
		w.UVarint(uint64(len(spec.Devices)))
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
	r, err := c.call(0, CmdSubscribe, w.Bytes())
	if err != nil {
		return 0, err
	}
	id := r.UVarint()
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("pmic: malformed subscribe response: %w", err)
	}
	c.mu.Lock()
	if _, ok := c.subs[id]; !ok {
		c.subs[id] = &subDecodeState{bits: make(map[uint16][]uint64)}
	}
	c.mu.Unlock()
	return id, nil
}

// Unsubscribe tears down a subscription by id. Pushes already in
// flight may still arrive and decode; they are safe to ignore.
func (c *Client) Unsubscribe(id uint64) error {
	var w bus.Writer
	w.UVarint(id)
	_, err := c.call(0, CmdUnsubscribe, w.Bytes())
	if err == nil {
		c.mu.Lock()
		delete(c.subs, id)
		c.mu.Unlock()
	}
	return err
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
	maxStale := c.MaxStale
	if maxStale <= 0 {
		maxStale = 64
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
		p, err := c.decodePush(fr)
		if err != nil {
			return nil, err
		}
		return p, nil
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

// decodePush decodes one CmdPush frame. Called with c.mu held.
func (c *Client) decodePush(fr bus.Frame) (*Push, error) {
	r := bus.NewReader(fr.Payload)
	kind := r.U8()
	p := &Push{Kind: kind}
	switch kind {
	case PushMetrics:
		flags := r.U8()
		p.SubID = r.UVarint()
		p.Dropped = r.UVarint()
		p.Reset = flags&PushFlagReset != 0
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
			dev := r.U16()
			t := r.F64()
			nVals := int(r.UVarint())
			pd := PushDevice{Device: dev, TimeS: t}
			base := st.bits[dev]
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
			st.bits[dev] = base
			p.Devices = append(p.Devices, pd)
		}
	case PushTrace:
		p.SubID = r.UVarint()
		p.Dropped = r.UVarint()
		n := int(r.U16())
		for i := 0; i < n && r.Err() == nil; i++ {
			p.Events = append(p.Events, DecodeEvent(r))
		}
	case PushAlert:
		p.SubID = r.UVarint()
		p.Dropped = r.UVarint()
		n := int(r.UVarint())
		for i := 0; i < n && r.Err() == nil; i++ {
			p.Alerts = append(p.Alerts, PushAlertTransition{
				Device:    r.U16(),
				TimeS:     r.F64(),
				Rule:      r.Str(),
				From:      ts.AlertState(r.U8()),
				To:        ts.AlertState(r.U8()),
				Value:     r.F64(),
				Threshold: r.F64(),
			})
		}
	default:
		return nil, fmt.Errorf("pmic: unknown push kind %#02x", kind)
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

// FleetSubs lists the fleet endpoint's live push subscriptions. A
// plain single-device server answers StatusBadCmd.
func (c *Client) FleetSubs() ([]SubStat, error) {
	var w bus.Writer
	w.U8(FleetSubs)
	r, err := c.call(0, CmdFleetInfo, w.Bytes())
	if err != nil {
		return nil, err
	}
	n := int(r.UVarint())
	out := make([]SubStat, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, SubStat{
			ID:        r.UVarint(),
			Signals:   r.U8(),
			FleetWide: r.U8() != 0,
			Devices:   int(r.UVarint()),
			Pushed:    r.UVarint(),
			Dropped:   r.UVarint(),
		})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("pmic: malformed fleet subs response: %w", err)
	}
	return out, nil
}
