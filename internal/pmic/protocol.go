package pmic

import (
	"errors"
	"strings"

	"sdb/internal/bus"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
)

// Command opcodes of the SDB control protocol. Responses echo the
// request opcode with RespFlag set.
const (
	CmdPing        = 0x01
	CmdSetDischg   = 0x02
	CmdSetCharge   = 0x03
	CmdTransfer    = 0x04
	CmdQueryStatus = 0x05
	CmdSetProfile  = 0x06
	CmdBattCount   = 0x07
	CmdGetRatios   = 0x08
	// CmdMetrics fetches the controller-side registry rendered in the
	// text exposition format; CmdTrace fetches the trace ring. Both
	// bound their responses to one frame: metrics truncate at the last
	// whole line (marked "# truncated"), traces keep the newest events
	// that fit.
	CmdMetrics = 0x09
	CmdTrace   = 0x0A
	// CmdSeries queries the controller's attached time-series recorder:
	// mode SeriesList returns the recorded series names, SeriesGet one
	// series' newest samples. Like CmdTrace, responses are bounded to
	// one frame by dropping the oldest data first.
	CmdSeries = 0x0B
	// CmdFleetInfo queries a fleet endpoint about the fleet itself
	// rather than any one device: mode FleetList returns registered
	// device ids (lowest first, as many as fit one frame), FleetStat
	// the aggregate counters. A controller's own Dispatch answers
	// StatusBadCmd — it has no fleet.
	CmdFleetInfo = 0x0C
	// CmdSubscribe opens a push subscription on a fleet endpoint: the
	// request names a signal set (metrics, trace events, alert
	// transitions), a device scope (an id list or the whole fleet), a
	// sim-time cadence, and optional metric-name globs; the response
	// carries the subscription id. From then on the server pushes
	// CmdPush frames on the same connection from its tick barrier.
	// CmdUnsubscribe tears the subscription down by id. A controller's
	// own Dispatch answers StatusBadCmd — push needs a fleet barrier.
	CmdSubscribe   = 0x0D
	CmdUnsubscribe = 0x0E
	// CmdPush is the server-push frame family. Push frames are
	// unsolicited: they carry sequence number 0, which no client
	// request ever uses (the client sequence wraps 255 -> 1 skipping
	// 0), so a legacy request/response client can never match one to a
	// pending call — it counts the frame stale and keeps working. The
	// first payload byte selects the push kind (PushMetrics, PushTrace,
	// PushAlert).
	CmdPush  = 0x0F
	RespFlag = 0x80
)

// CmdPush payload kinds (first payload byte).
const (
	// PushMetrics carries delta-encoded metric samples: per device,
	// each changed value as (name id, XOR of the float64 bit patterns
	// against the previous push). Device id 0xFFFF is the fleet itself
	// (the rollup pseudo-device). A frame flagged PushFlagReset re-bases
	// every delta on zero and re-announces the name dictionary — the
	// server sends it after it had to drop frames for the subscriber,
	// so a lossy stream always re-converges.
	PushMetrics = 0x01
	// PushTrace carries fleet-scope trace events newer than the last
	// push, encoded like a CmdTrace response body.
	PushTrace = 0x02
	// PushAlert carries fleet alert transitions (rule, device, state
	// edge, value, threshold) from the tick barrier they happened at.
	PushAlert = 0x03
)

// PushFlagReset marks a PushMetrics frame whose deltas are based on
// zero rather than the previous push; the subscriber must zero its
// per-device bit state for the subscription before applying.
const PushFlagReset = 0x01

// CmdSubscribe device scopes.
const (
	// SubScopeDevices subscribes to an explicit device-id list.
	SubScopeDevices = 0x00
	// SubScopeFleet subscribes to every device, present and future.
	SubScopeFleet = 0x01
)

// CmdSubscribe signal-set bits.
const (
	SubSigMetrics = 1 << 0
	SubSigTrace   = 1 << 1
	SubSigAlerts  = 1 << 2
)

// PushFleetDevice is the pseudo device id PushMetrics uses for the
// fleet-level rollup block (devices, running, steps, quarantined,
// firing alerts). Real devices should not register under it.
const PushFleetDevice = 0xFFFF

// CmdSeries request modes.
const (
	SeriesList = 0x00
	SeriesGet  = 0x01
)

// CmdFleetInfo request modes.
const (
	FleetList = 0x00
	FleetStat = 0x01
	// FleetSnapshot asks the fleet to write a checkpoint to its
	// configured path; the response reports the path and encoded size.
	// A fleet with no checkpoint path answers StatusBadArgs.
	FleetSnapshot = 0x02
	// FleetSubs lists the endpoint's live push subscriptions with their
	// pushed/dropped frame counters, the ground truth for slow-consumer
	// drop accounting.
	FleetSubs = 0x03
)

// Protocol status codes (first payload byte of every response).
const (
	StatusOK       = 0x00
	StatusBadArgs  = 0x01
	StatusBadIndex = 0x02
	StatusInternal = 0x03
	StatusBadCmd   = 0x04
	// StatusNoDevice is a fleet endpoint's answer to a frame addressing
	// a device id with no registered device behind it.
	StatusNoDevice = 0x05
	// StatusDraining is a draining fleet's answer to device commands:
	// the endpoint is running down toward a clean close. Retryable —
	// the client may be talking to a rolling restart, and the replacing
	// endpoint will answer.
	StatusDraining = 0x06
	// StatusQuarantined marks a device parked by fleet supervision
	// after a panic: its state is suspect and commands are refused
	// until an operator intervenes. Not retryable.
	StatusQuarantined = 0x07
)

// statusErr converts a controller error into a protocol status code.
func statusErr(err error) byte {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrBadIndex):
		return StatusBadIndex
	default:
		return StatusBadArgs
	}
}

// Dispatch executes one request frame and builds the response, which
// echoes the request's sequence number and device id. The controller
// runs no frame loop of its own: a server (internal/fleet) reads each
// frame off a connection and routes it to the addressed controller's
// Dispatch.
func (c *Controller) Dispatch(req bus.Frame) bus.Frame {
	var w bus.Writer
	switch req.Cmd {
	case CmdPing:
		w.U8(StatusOK)

	case CmdSetDischg, CmdSetCharge:
		r := bus.NewReader(req.Payload)
		n := int(r.U8())
		ratios := make([]float64, n)
		for i := range ratios {
			ratios[i] = r.F64()
		}
		if r.Err() != nil {
			w.U8(StatusBadArgs)
			break
		}
		var err error
		if req.Cmd == CmdSetDischg {
			err = c.Discharge(ratios)
		} else {
			err = c.Charge(ratios)
		}
		w.U8(statusErr(err))

	case CmdTransfer:
		r := bus.NewReader(req.Payload)
		x := int(r.U8())
		y := int(r.U8())
		pw := r.F64()
		secs := r.F64()
		if r.Err() != nil {
			w.U8(StatusBadArgs)
			break
		}
		w.U8(statusErr(c.ChargeOneFromAnother(x, y, pw, secs)))

	case CmdQueryStatus:
		sts, err := c.QueryBatteryStatus()
		if err != nil {
			w.U8(StatusInternal)
			break
		}
		w.U8(StatusOK).U8(byte(len(sts)))
		for _, s := range sts {
			encodeStatus(&w, s)
		}

	case CmdSetProfile:
		r := bus.NewReader(req.Payload)
		batt := int(r.U8())
		name := r.Str()
		if r.Err() != nil {
			w.U8(StatusBadArgs)
			break
		}
		w.U8(statusErr(c.SetChargeProfile(batt, name)))

	case CmdBattCount:
		n, _ := c.BatteryCount()
		w.U8(StatusOK).U8(byte(n))

	case CmdGetRatios:
		dis, chg := c.Ratios()
		w.U8(StatusOK).U8(byte(len(dis)))
		for _, r := range dis {
			w.F64(r)
		}
		for _, r := range chg {
			w.F64(r)
		}

	case CmdMetrics:
		// An uninstrumented controller answers OK with an empty body:
		// "no metrics" is a normal state, not a protocol error. An
		// empty request is the legacy single-frame form — a whole-family
		// prefix of the exposition, cut marked — so pre-cursor clients
		// keep working. A UVarint family cursor instead pages the full
		// registry: the response carries the next cursor (0 = done)
		// before the chunk.
		if len(req.Payload) == 0 {
			w.U8(StatusOK).Str(truncateExposition(c.om.reg.Text(), bus.MaxPayload-3))
			break
		}
		r := bus.NewReader(req.Payload)
		start := r.UVarint()
		if r.Err() != nil {
			w.U8(StatusBadArgs)
			break
		}
		chunk, next := metricsPage(c.om.reg.Snapshot(), int(start), bus.MaxPayload-16)
		w.U8(StatusOK).UVarint(uint64(next)).Str(chunk)

	case CmdTrace:
		events := c.om.tracer.Events()
		encodeTrace(&w, events, bus.MaxPayload-3)

	case CmdSeries:
		r := bus.NewReader(req.Payload)
		mode := r.U8()
		switch {
		case r.Err() != nil:
			w.U8(StatusBadArgs)
		case mode == SeriesList:
			// Like CmdMetrics, a controller without a recorder answers OK
			// with zero series: recording off is a normal state.
			encodeSeriesList(&w, c.Recorder().Names(), bus.MaxPayload)
		case mode == SeriesGet:
			name := r.Str()
			if r.Err() != nil {
				w.U8(StatusBadArgs)
				break
			}
			win, ok := c.Recorder().Get(name)
			if !ok {
				w.U8(StatusBadIndex)
				break
			}
			encodeSeriesWindow(&w, win, bus.MaxPayload)
		default:
			w.U8(StatusBadArgs)
		}

	default:
		w.U8(StatusBadCmd)
	}
	return bus.Frame{Cmd: req.Cmd | RespFlag, Seq: req.Seq, Device: req.Device, Payload: w.Bytes()}
}

// truncateExposition bounds an exposition text to max bytes without
// splitting a family; a cut is marked with a trailing comment the
// parser ignores. Line boundaries are not enough: a histogram family
// is only valid with its +Inf bucket, sum, and count lines, so the
// cut keeps whole families only.
func truncateExposition(text string, max int) string {
	const marker = "# truncated\n"
	if len(text) <= max {
		return text
	}
	budget := max - len(marker)
	end := 0
	for end < len(text) {
		i := strings.Index(text[end:], "\n# TYPE ")
		famEnd := len(text)
		if i >= 0 {
			famEnd = end + i + 1
		}
		if famEnd > budget {
			break
		}
		end = famEnd
	}
	return text[:end] + marker
}

// metricsPage renders whole families of a sorted snapshot starting at
// index start into at most budget bytes and returns the next cursor —
// the index of the first family that did not fit, or 0 once the last
// family has been emitted. It always advances: a single family bigger
// than a frame (not reachable with the registry's bounded histograms)
// is cut marked rather than looping the client forever.
func metricsPage(fams []obs.Family, start, budget int) (string, int) {
	if start < 0 || start > len(fams) {
		start = len(fams)
	}
	var sb strings.Builder
	i := start
	for i < len(fams) {
		t := fams[i].Text()
		if len(t) > budget-sb.Len() {
			if sb.Len() == 0 {
				sb.WriteString(truncateExposition(t, budget))
				i++
			}
			break
		}
		sb.WriteString(t)
		i++
	}
	if i >= len(fams) {
		i = 0
	}
	return sb.String(), i
}

// EncodedEventLen is the wire size of one trace event: fixed fields
// (seq, time, cell, v1, v2) plus three length-prefixed strings. Shared
// by the CmdTrace response and the fleet's PushTrace frames.
func EncodedEventLen(ev obs.Event) int {
	return 8 + 8 + 2 + 8 + 8 + (2 + len(ev.Scope)) + (2 + len(ev.Kind)) + (2 + len(ev.Detail))
}

// EncodeEvent marshals one trace event in the CmdTrace wire layout.
func EncodeEvent(w *bus.Writer, ev obs.Event) {
	cell := uint16(0xFFFF)
	if ev.Cell >= 0 {
		cell = uint16(ev.Cell)
	}
	w.U64(ev.Seq).F64(ev.TimeS).Str(ev.Scope).Str(ev.Kind)
	w.U16(cell).F64(ev.V1).F64(ev.V2).Str(ev.Detail)
}

// DecodeEvent unmarshals one trace event; check r.Err() after.
func DecodeEvent(r *bus.Reader) obs.Event {
	var ev obs.Event
	ev.Seq = r.U64()
	ev.TimeS = r.F64()
	ev.Scope = r.Str()
	ev.Kind = r.Str()
	cell := r.U16()
	ev.Cell = int(cell)
	if cell == 0xFFFF {
		ev.Cell = -1
	}
	ev.V1 = r.F64()
	ev.V2 = r.F64()
	ev.Detail = r.Str()
	return ev
}

// encodeTrace writes status, a count, and as many of the newest events
// as fit in budget bytes, oldest-first so the client prints them in
// chronological order.
func encodeTrace(w *bus.Writer, events []obs.Event, budget int) {
	budget -= 2 // count field
	start := len(events)
	for start > 0 && budget-EncodedEventLen(events[start-1]) >= 0 {
		budget -= EncodedEventLen(events[start-1])
		start--
	}
	events = events[start:]
	w.U8(StatusOK).U16(uint16(len(events)))
	for _, ev := range events {
		EncodeEvent(w, ev)
	}
}

// encodeSeriesList writes status, a count, and as many series names as
// fit in budget bytes (names arrive sorted; the alphabetical tail is
// dropped first and the count reflects only what is sent).
func encodeSeriesList(w *bus.Writer, names []string, budget int) {
	budget -= 1 + 2 // status + count
	n := 0
	for _, name := range names {
		cost := 2 + len(name)
		if budget-cost < 0 {
			break
		}
		budget -= cost
		n++
	}
	w.U8(StatusOK).U16(uint16(n))
	for _, name := range names[:n] {
		w.Str(name)
	}
}

// encodeSeriesWindow writes one series with as many of the NEWEST
// samples as fit in budget bytes, mirroring CmdTrace's
// keep-the-recent-past policy: FirstT advances past the dropped
// samples so the transmitted window still places every value on the
// sim clock, and Total still counts everything ever recorded.
func encodeSeriesWindow(w *bus.Writer, win ts.Window, budget int) {
	// Fixed cost: status, name, kind, stepS, firstT, and a worst-case
	// 10 bytes for each of the two varints.
	fixed := 1 + (2 + len(win.Name)) + 1 + 8 + 8 + 10 + 10
	keep := (budget - fixed) / 8
	if keep < 0 {
		keep = 0
	}
	if drop := len(win.Values) - keep; drop > 0 {
		win.Values = win.Values[drop:]
		win.FirstT += float64(drop) * win.StepS
	}
	w.U8(StatusOK).Str(win.Name).U8(byte(win.Kind)).F64(win.StepS).F64(win.FirstT)
	w.UVarint(win.Total).UVarint(uint64(len(win.Values)))
	for _, v := range win.Values {
		w.F64(v)
	}
}

// encodeStatus marshals one BatteryStatus record.
func encodeStatus(w *bus.Writer, s BatteryStatus) {
	w.U8(byte(s.Index)).Str(s.Name).Str(s.Chem)
	w.F64(s.SoC).F64(s.TerminalV).F64(s.CycleCount).F64(s.WearRatio)
	w.F64(s.RatedCycles).F64(s.CapacityFraction).F64(s.CapacityCoulombs)
	w.F64(s.DCIR).F64(s.DCIRSlope)
	w.F64(s.MaxDischargeW).F64(s.MaxChargeW).F64(s.MaxChargeA)
	w.F64(s.EnergyRemainingJ).F64(s.TemperatureC)
	var flags byte
	if s.Bendable {
		flags |= 1
	}
	if s.Faulted {
		flags |= 2
	}
	w.U8(flags)
}

// decodeStatus unmarshals one BatteryStatus record.
func decodeStatus(r *bus.Reader) BatteryStatus {
	s := BatteryStatus{
		Index: int(r.U8()),
		Name:  r.Str(),
		Chem:  r.Str(),
	}
	s.SoC = r.F64()
	s.TerminalV = r.F64()
	s.CycleCount = r.F64()
	s.WearRatio = r.F64()
	s.RatedCycles = r.F64()
	s.CapacityFraction = r.F64()
	s.CapacityCoulombs = r.F64()
	s.DCIR = r.F64()
	s.DCIRSlope = r.F64()
	s.MaxDischargeW = r.F64()
	s.MaxChargeW = r.F64()
	s.MaxChargeA = r.F64()
	s.EnergyRemainingJ = r.F64()
	s.TemperatureC = r.F64()
	flags := r.U8()
	s.Bendable = flags&1 != 0
	s.Faulted = flags&2 != 0
	return s
}
