// Package pmic is the SDB control protocol: the serial-bus command
// interface between the OS runtime and the microcontroller firmware
// (Section 3.2), and between an operator and a fleet of emulated
// devices. It owns every payload layout. Each command's request
// encoder and decoder and its reply encoder and decoder sit side by
// side, so the firmware (internal/firmware), the fleet server
// (internal/fleet) and the client here share one codec and no other
// package reads or writes protocol bytes.
//
// The package needs none of the cell physics: API and BatteryStatus
// are the operation set and record the runtime programs against, and
// Client implements API over any stream transport.
package pmic

import (
	"fmt"
	"slices"
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
	// series' newest samples. A list request holding only the mode byte
	// gets as many names as fit one frame; one with a UVarint cursor
	// after the mode is paged like CmdMetrics. SeriesGet keeps the
	// newest samples that fit one frame, as CmdTrace keeps events.
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

// BatteryStatus is the per-battery record QueryBatteryStatus returns:
// the paper names state of charge, terminal voltage, and cycle count;
// the firmware also reports the capability numbers policies need.
type BatteryStatus struct {
	Index            int
	Name             string
	Chem             string
	SoC              float64
	TerminalV        float64
	CycleCount       float64
	WearRatio        float64
	RatedCycles      float64
	CapacityFraction float64
	CapacityCoulombs float64
	DCIR             float64
	DCIRSlope        float64
	MaxDischargeW    float64
	MaxChargeW       float64
	MaxChargeA       float64
	EnergyRemainingJ float64
	TemperatureC     float64
	Bendable         bool
	// Faulted marks a cell the firmware has isolated (open circuit or
	// protection trip). Policies above must not route power through it;
	// the runtime masks faulted cells out of ratio vectors.
	Faulted bool
}

// API is the operation set the SDB Runtime needs from the controller.
// Both the in-process Controller and the bus Client implement it, so a
// policy stack can run against local hardware or a remote
// microcontroller unchanged.
type API interface {
	// Ping verifies the control link.
	Ping() error
	// Charge sets the charging power ratios (must sum to 1).
	Charge(ratios []float64) error
	// Discharge sets the discharging power ratios (must sum to 1).
	Discharge(ratios []float64) error
	// ChargeOneFromAnother charges battery y from battery x with power
	// w (watts) for t seconds.
	ChargeOneFromAnother(x, y int, w, t float64) error
	// QueryBatteryStatus reports per-battery state.
	QueryBatteryStatus() ([]BatteryStatus, error)
	// QueryBatteryStatusInto is QueryBatteryStatus writing into dst's
	// storage: it returns dst[:0] extended by one record per battery,
	// growing it only when its capacity is short. A tick loop that
	// hands back the previous result queries without allocating.
	QueryBatteryStatusInto(dst []BatteryStatus) ([]BatteryStatus, error)
	// SetChargeProfile selects a stored charging profile for one
	// battery.
	SetChargeProfile(batt int, profile string) error
	// BatteryCount returns the number of batteries in the pack.
	BatteryCount() (int, error)
}

// Reply builds a status-only response to req: the answer to a command
// that returns nothing, and every rejection.
func Reply(req bus.Frame, status byte) bus.Frame { return reply(req, []byte{status}) }

// reply wraps a payload in the response frame to req, which echoes its
// sequence number and device id.
func reply(req bus.Frame, p []byte) bus.Frame {
	return bus.Frame{Cmd: req.Cmd | RespFlag, Seq: req.Seq, Device: req.Device, Payload: p}
}

// Ping implements API.
func (d DeviceClient) Ping() error { return d.get(CmdPing, nil, "", nil) }

// CmdSetDischg and CmdSetCharge carry a count and that many ratios.
func ratioPayload(ratios []float64) []byte {
	var w bus.Writer
	w.U8(byte(len(ratios)))
	for _, r := range ratios {
		w.F64(r)
	}
	return w.Bytes()
}

// DecodeRatios decodes a CmdSetDischg or CmdSetCharge request.
func DecodeRatios(p []byte) ([]float64, bool) {
	r := bus.NewReader(p)
	ratios := make([]float64, int(r.U8()))
	for i := range ratios {
		ratios[i] = r.F64()
	}
	return ratios, r.Err() == nil
}

// Discharge implements API.
func (d DeviceClient) Discharge(ratios []float64) error {
	return d.get(CmdSetDischg, ratioPayload(ratios), "", nil)
}

// Charge implements API.
func (d DeviceClient) Charge(ratios []float64) error {
	return d.get(CmdSetCharge, ratioPayload(ratios), "", nil)
}

// ChargeOneFromAnother implements API.
func (d DeviceClient) ChargeOneFromAnother(x, y int, w, t float64) error {
	var p bus.Writer
	p.U8(byte(x)).U8(byte(y)).F64(w).F64(t)
	return d.get(CmdTransfer, p.Bytes(), "", nil)
}

// DecodeTransfer decodes a CmdTransfer request: source and sink
// battery, power in watts and duration in seconds.
func DecodeTransfer(p []byte) (x, y int, w, secs float64, ok bool) {
	r := bus.NewReader(p)
	x, y, w, secs = int(r.U8()), int(r.U8()), r.F64(), r.F64()
	return x, y, w, secs, r.Err() == nil
}

// SetChargeProfile implements API.
func (d DeviceClient) SetChargeProfile(batt int, profile string) error {
	var p bus.Writer
	p.U8(byte(batt)).Str(profile)
	return d.get(CmdSetProfile, p.Bytes(), "", nil)
}

// DecodeProfile decodes a CmdSetProfile request.
func DecodeProfile(p []byte) (batt int, name string, ok bool) {
	r := bus.NewReader(p)
	batt, name = int(r.U8()), r.Str()
	return batt, name, r.Err() == nil
}

// StatusReply encodes the answer to CmdQueryStatus.
func StatusReply(req bus.Frame, sts []BatteryStatus) bus.Frame {
	var w bus.Writer
	w.U8(StatusOK).U8(byte(len(sts)))
	for _, s := range sts {
		encodeStatus(&w, s)
	}
	return reply(req, w.Bytes())
}

// QueryBatteryStatus implements API.
func (d DeviceClient) QueryBatteryStatus() ([]BatteryStatus, error) {
	return d.QueryBatteryStatusInto(nil)
}

// QueryBatteryStatusInto implements API.
func (d DeviceClient) QueryBatteryStatusInto(dst []BatteryStatus) (out []BatteryStatus, err error) {
	err = d.get(CmdQueryStatus, nil, "status", func(r *bus.Reader) error {
		n := int(r.U8())
		out = slices.Grow(dst[:0], n)
		for i := 0; i < n; i++ {
			out = append(out, decodeStatus(r))
		}
		return nil
	})
	return out, err
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

// BattCountReply encodes the answer to CmdBattCount.
func BattCountReply(req bus.Frame, n int) bus.Frame {
	var w bus.Writer
	w.U8(StatusOK).U8(byte(n))
	return reply(req, w.Bytes())
}

// BatteryCount implements API.
func (d DeviceClient) BatteryCount() (n int, err error) {
	err = d.get(CmdBattCount, nil, "battery count", func(r *bus.Reader) error {
		n = int(r.U8())
		return nil
	})
	return n, err
}

// RatiosReply encodes the answer to CmdGetRatios: the count, then the
// discharge and the charge registers.
func RatiosReply(req bus.Frame, dis, chg []float64) bus.Frame {
	var w bus.Writer
	w.U8(StatusOK).U8(byte(len(dis)))
	for _, r := range dis {
		w.F64(r)
	}
	for _, r := range chg {
		w.F64(r)
	}
	return reply(req, w.Bytes())
}

// Ratios fetches the firmware's latched discharge and charge ratio
// registers.
func (d DeviceClient) Ratios() (dis, chg []float64, err error) {
	err = d.get(CmdGetRatios, nil, "ratios", func(r *bus.Reader) error {
		n := int(r.U8())
		dis, chg = make([]float64, n), make([]float64, n)
		for i := range dis {
			dis[i] = r.F64()
		}
		for i := range chg {
			chg[i] = r.F64()
		}
		return nil
	})
	return dis, chg, err
}

// DecodeCursor decodes the paging cursor of a CmdMetrics request, or
// of a CmdSeries list request after its mode byte. An empty payload is
// the legacy single-frame form (paged false).
func DecodeCursor(p []byte) (cursor int, paged, ok bool) {
	if len(p) == 0 {
		return 0, false, true
	}
	r := bus.NewReader(p)
	c := r.UVarint()
	return int(c), true, r.Err() == nil
}

// MetricsReply encodes the answer to CmdMetrics from reg. The legacy
// answer is the exposition cut at a whole family (truncateExposition);
// a paged one holds the next cursor (0 = done), then the whole families
// from index start that fit (metricsPage). A nil reg, an uninstrumented
// controller, answers with no metrics: a normal state, not an error.
func MetricsReply(req bus.Frame, reg *obs.Registry, start int, paged bool) bus.Frame {
	var w bus.Writer
	w.U8(StatusOK)
	if paged {
		chunk, next := metricsPage(reg.Snapshot(), start, bus.MaxPayload-16)
		w.UVarint(uint64(next)).Str(chunk)
	} else {
		w.Str(truncateExposition(reg.Text(), bus.MaxPayload-3))
	}
	return reply(req, w.Bytes())
}

// Metrics fetches the remote controller's registry rendered in the
// text exposition format. Registries too big for one frame are paged
// across several requests by whole families and reassembled here, so
// the result is always the complete exposition. (A trailing
// "# truncated" comment can only appear in the degenerate case of a
// single family outgrowing a frame.)
func (d DeviceClient) Metrics() (string, error) {
	var sb strings.Builder
	err := d.pages(CmdMetrics, nil, "metrics", func(r *bus.Reader) {
		sb.WriteString(r.Str())
	})
	return sb.String(), err
}

// pages fetches a paged listing: each request carries prefix and a
// UVarint cursor, each answer the next cursor (0 = done) ahead of a
// chunk that read consumes. A cursor that does not advance is an error.
func (d DeviceClient) pages(cmd byte, prefix []byte, what string, read func(*bus.Reader)) error {
	var cursor, next uint64
	for {
		var w bus.Writer
		w.UVarint(cursor)
		err := d.get(cmd, append(prefix, w.Bytes()...), what, func(r *bus.Reader) error {
			next = r.UVarint()
			read(r)
			return nil
		})
		switch {
		case err != nil:
			return err
		case next == 0:
			return nil
		case next <= cursor:
			return fmt.Errorf("pmic: %s page cursor went backwards (%d after %d)", what, next, cursor)
		}
		cursor = next
	}
}

// get runs one call and hands its OK answer to read (nil ignores the
// answer). A reader left failed is a malformed answer to what.
func (d DeviceClient) get(cmd byte, payload []byte, what string, read func(*bus.Reader) error) error {
	r, err := d.c.call(d.dev, cmd, payload)
	if err != nil || read == nil {
		return err
	}
	if err := read(r); err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("pmic: malformed %s response: %w", what, err)
	}
	return nil
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

// encodedEventLen is the wire size of one trace event: fixed fields
// (seq, time, cell, v1, v2) plus three length-prefixed strings. Shared
// by the CmdTrace response and the fleet's PushTrace frames.
func encodedEventLen(ev obs.Event) int {
	return 8 + 8 + 2 + 8 + 8 + (2 + len(ev.Scope)) + (2 + len(ev.Kind)) + (2 + len(ev.Detail))
}

// encodeEvent marshals one trace event in the CmdTrace wire layout.
func encodeEvent(w *bus.Writer, ev obs.Event) {
	cell := uint16(0xFFFF)
	if ev.Cell >= 0 {
		cell = uint16(ev.Cell)
	}
	w.U64(ev.Seq).F64(ev.TimeS).Str(ev.Scope).Str(ev.Kind)
	w.U16(cell).F64(ev.V1).F64(ev.V2).Str(ev.Detail)
}

// decodeEvent unmarshals one trace event; check r.Err() after.
func decodeEvent(r *bus.Reader) obs.Event {
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

// TraceReply encodes the answer to CmdTrace: a count and as many of
// the newest events as fit one frame, oldest first so the client
// prints them in chronological order.
func TraceReply(req bus.Frame, events []obs.Event) bus.Frame {
	budget := bus.MaxPayload - 3 - 2 // status, count
	start := len(events)
	for start > 0 && budget-encodedEventLen(events[start-1]) >= 0 {
		budget -= encodedEventLen(events[start-1])
		start--
	}
	events = events[start:]
	var w bus.Writer
	w.U8(StatusOK).U16(uint16(len(events)))
	for _, ev := range events {
		encodeEvent(&w, ev)
	}
	return reply(req, w.Bytes())
}

// TraceEvents fetches the remote controller's trace ring, oldest
// first. The firmware keeps only the newest events that fit one frame.
func (d DeviceClient) TraceEvents() (out []obs.Event, err error) {
	err = d.get(CmdTrace, nil, "trace", func(r *bus.Reader) error {
		out = decodeEvents(r, int(r.U16()))
		return nil
	})
	return out, err
}

// decodeEvents reads n events, stopping at the first decode error.
func decodeEvents(r *bus.Reader, n int) []obs.Event {
	var out []obs.Event
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, decodeEvent(r))
	}
	return out
}

// SeriesRequest is a decoded CmdSeries request: the series a SeriesGet
// names, or where a SeriesList resumes (Paged is false for the legacy
// request, the mode byte alone).
type SeriesRequest struct {
	Mode   byte
	Name   string
	Cursor int
	Paged  bool
}

// DecodeSeriesRequest decodes a CmdSeries request; ok is false for a
// malformed one, whatever its mode.
func DecodeSeriesRequest(p []byte) (SeriesRequest, bool) {
	if len(p) == 0 {
		return SeriesRequest{}, false
	}
	q := SeriesRequest{Mode: p[0]}
	switch q.Mode {
	case SeriesList:
		var ok bool
		q.Cursor, q.Paged, ok = DecodeCursor(p[1:])
		return q, ok
	case SeriesGet:
		r := bus.NewReader(p[1:])
		q.Name = r.Str()
		return q, r.Err() == nil
	}
	return q, false
}

// SeriesListReply encodes the answer to a SeriesList: a count and as
// many of the sorted names from index start as fit one frame. A paged
// answer puts the next cursor (0 = done) first and always advances;
// the legacy one (start 0) drops the alphabetical tail.
func SeriesListReply(req bus.Frame, names []string, start int, paged bool) bus.Frame {
	if start < 0 || start > len(names) {
		start = len(names)
	}
	names = names[start:]
	budget := bus.MaxPayload - 1 - 2 // status, count
	if paged {
		budget -= 10 + 3 // cursor, spare
	}
	n := 0
	for _, name := range names {
		if budget -= 2 + len(name); budget < 0 {
			break
		}
		n++
	}
	var w bus.Writer
	w.U8(StatusOK)
	if paged {
		n = max(n, min(len(names), 1))
		next := 0
		if n < len(names) {
			next = start + n
		}
		w.UVarint(uint64(next))
	}
	w.U16(uint16(n))
	for _, name := range names[:n] {
		w.Str(name)
	}
	return reply(req, w.Bytes())
}

// SeriesNames lists the series the remote controller's recorder holds
// (empty when recording is off), fetched a frame at a time.
func (d DeviceClient) SeriesNames() ([]string, error) {
	out := []string{}
	err := d.pages(CmdSeries, []byte{SeriesList}, "series list", func(r *bus.Reader) {
		for n := int(r.U16()); n > 0 && r.Err() == nil; n-- {
			out = append(out, r.Str())
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SeriesReply encodes the answer to a SeriesGet: one series with as
// many of its NEWEST samples as fit one frame, mirroring CmdTrace's
// keep-the-recent-past policy. FirstT advances past the dropped
// samples so the transmitted window still places every value on the
// sim clock, and Total still counts everything ever recorded.
func SeriesReply(req bus.Frame, win ts.Window) bus.Frame {
	// Fixed cost: status, name, kind, stepS, firstT, and a worst-case
	// 10 bytes for each of the two varints.
	fixed := 1 + (2 + len(win.Name)) + 1 + 8 + 8 + 10 + 10
	keep := max((bus.MaxPayload-fixed)/8, 0)
	if drop := len(win.Values) - keep; drop > 0 {
		win.Values = win.Values[drop:]
		win.FirstT += float64(drop) * win.StepS
	}
	var w bus.Writer
	w.U8(StatusOK).Str(win.Name).U8(byte(win.Kind)).F64(win.StepS).F64(win.FirstT)
	w.UVarint(win.Total).UVarint(uint64(len(win.Values)))
	for _, v := range win.Values {
		w.F64(v)
	}
	return reply(req, w.Bytes())
}

// Series fetches one recorded series from the remote controller. The
// firmware keeps only the newest samples that fit one frame, advancing
// the window's FirstT past anything dropped; Total still counts every
// sample ever recorded.
func (d DeviceClient) Series(name string) (win ts.Window, err error) {
	var w bus.Writer
	w.U8(SeriesGet).Str(name)
	err = d.get(CmdSeries, w.Bytes(), "series", func(r *bus.Reader) error {
		win = ts.Window{Name: r.Str(), Kind: ts.Kind(r.U8()), StepS: r.F64(), FirstT: r.F64(), Total: r.UVarint()}
		n := r.UVarint()
		if n > uint64(r.Remaining())/8 {
			return fmt.Errorf("pmic: malformed series response: count %d exceeds payload", n)
		}
		win.Values = make([]float64, n)
		for i := range win.Values {
			win.Values[i] = r.F64()
		}
		return nil
	})
	return win, err
}
