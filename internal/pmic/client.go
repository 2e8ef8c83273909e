package pmic

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"sdb/internal/bus"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
)

// Client speaks the SDB control protocol to a remote controller over
// any stream transport (the prototype's Bluetooth link, a TCP socket,
// or an in-process pipe). It implements API, so the SDB Runtime can
// run against a remote microcontroller exactly as it runs against an
// in-process one.
//
// The protocol is strictly request/response; Client serializes calls
// with a mutex and matches responses by sequence number and device id.
//
// Against a fleet endpoint (internal/fleet), one Client multiplexes
// every device behind the connection: Device(id) returns a view whose
// calls carry that device id in the frame header. The Client embeds
// the device-0 view, so its API methods address device 0,
// byte-identical on the wire to the pre-fleet protocol.
//
// Resilience: the prototype's Bluetooth link drops and corrupts frames
// routinely, so the client can retry. Each failed attempt is classified
// retryable (CRC garbage, timeout, stale-response flood — the request
// or response was lost in transit) or fatal (the firmware received the
// request intact and rejected it, e.g. StatusBadArgs — re-sending the
// same bytes cannot succeed). Retryable failures are re-sent up to
// Retries times with exponential backoff; a dead transport is re-dialed
// through the optional Dial hook.
type Client struct {
	// DeviceClient is the device-0 view (see Device), which supplies
	// the Client's API methods.
	DeviceClient

	mu  sync.Mutex
	rw  io.ReadWriter
	sc  *bus.Scanner
	seq byte

	// Timeout bounds each round-trip attempt when the transport
	// supports deadlines (net.Conn does). Zero means wait forever —
	// fine for in-process pipes to a live server, essential to change
	// when the link can drop frames (the firmware never answers a
	// request it never received intact).
	Timeout time.Duration

	// Retries is how many additional attempts a call makes after a
	// retryable failure. Zero preserves the historical fail-fast
	// behavior.
	Retries int

	// Backoff is the sleep before the first retry; it doubles on each
	// subsequent one. Zero retries immediately.
	Backoff time.Duration

	// Dial, when set, is used to replace the transport after it dies
	// (EOF, closed pipe): the next attempt runs over the fresh
	// connection. Without it a dead transport fails the call.
	Dial func() (io.ReadWriter, error)

	// MaxStale bounds how many mismatched (stale or forged) response
	// frames one attempt will discard before giving up; a peer spraying
	// garbage must not pin the client in the drain loop forever.
	// Zero means the default of 64.
	MaxStale int

	// Push-subscription decode state (see subscribe.go): per-sub name
	// dictionaries and per-device delta bases, plus pushes that arrived
	// interleaved with request/response traffic, buffered for the next
	// ReadPush.
	subs    map[uint64]*subDecodeState
	pushBuf []*Push

	// Link-health observables (nil counters are no-ops).
	om clientMetrics
}

// clientMetrics bundles the bus client's observables. NewClient wires
// them to the process default registry; SetObs rebinds them.
type clientMetrics struct {
	retries     *obs.Counter
	redials     *obs.Counter
	staleFrames *obs.Counter
	junkBytes   *obs.Counter
	rejects     *obs.Counter
}

func newClientMetrics(reg *obs.Registry) clientMetrics {
	return clientMetrics{
		retries:     reg.Counter("sdb_bus_retries_total"),
		redials:     reg.Counter("sdb_bus_redials_total"),
		staleFrames: reg.Counter("sdb_bus_stale_frames_total"),
		junkBytes:   reg.Counter("sdb_bus_resync_bytes_total"),
		rejects:     reg.Counter("sdb_bus_resync_frames_total"),
	}
}

// SetObs points the client's link-health counters at reg (nil detaches
// them). The scanner's resync counters are re-attached across redials.
func (c *Client) SetObs(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.om = newClientMetrics(reg)
	c.sc.Instrument(c.om.junkBytes, c.om.rejects)
}

// deadliner is the optional transport capability Timeout needs.
type deadliner interface {
	SetDeadline(time.Time) error
}

var _ API = (*Client)(nil)

// init binds the client to a transport, at construction and on redial.
func (c *Client) init(rw io.ReadWriter) *Client {
	c.rw = rw
	c.sc = bus.NewScanner(rw)
	c.sc.Instrument(c.om.junkBytes, c.om.rejects)
	return c
}

// NewClient wraps a transport. Link-health counters report into the
// process default registry (a no-op unless a CLI installed one);
// SetObs rebinds them.
func NewClient(rw io.ReadWriter) *Client {
	c := &Client{om: newClientMetrics(obs.Default())}
	c.DeviceClient = c.Device(0)
	return c.init(rw)
}

// StatusError is a firmware rejection: the request arrived intact and
// the controller answered with a non-OK protocol status.
type StatusError struct {
	Cmd    byte
	Status byte
}

// Error implements error.
func (e *StatusError) Error() string {
	var what string
	switch e.Status {
	case StatusBadArgs:
		what = "bad arguments"
	case StatusBadIndex:
		what = "bad battery index"
	case StatusInternal:
		what = "internal controller error"
	case StatusBadCmd:
		what = "unknown command"
	case StatusNoDevice:
		what = "no such device"
	case StatusDraining:
		what = "fleet draining"
	case StatusQuarantined:
		what = "device quarantined"
	default:
		what = fmt.Sprintf("status %#02x", e.Status)
	}
	return fmt.Sprintf("pmic: command %#02x rejected: %s", e.Cmd, what)
}

// Retryable reports whether re-sending the identical request could
// succeed. A transient controller-side failure can, and so can a
// draining fleet (the drain ends in a restart or a new endpoint); a
// rejection of the request's content (bad arguments, bad index,
// unknown command) or of the device itself (quarantined) cannot —
// those fail fast however many retries are configured.
func (e *StatusError) Retryable() bool {
	return e.Status == StatusInternal || e.Status == StatusDraining
}

func statusToError(cmd byte, status byte) error {
	return &StatusError{Cmd: cmd, Status: status}
}

// ErrStaleFlood reports an attempt drowned by mismatched response
// frames (more than MaxStale in a row). Retryable: the flood usually
// comes from responses to earlier timed-out requests draining through.
var ErrStaleFlood = errors.New("pmic: too many mismatched responses")

// Device returns a view of the connection addressing one device of a
// fleet endpoint. Views share the client's transport, sequence space,
// retry configuration, and mutex; any number may be used concurrently.
// Device(0) behaves exactly like the Client's own methods.
func (c *Client) Device(id uint16) DeviceClient {
	return DeviceClient{c: c, dev: id}
}

// DeviceClient routes the control protocol to one device behind a
// shared connection. The zero device is the single-device default; its
// frames use the legacy version-1 header so old servers interoperate.
type DeviceClient struct {
	c   *Client
	dev uint16
}

// ID returns the device id this view addresses.
func (d DeviceClient) ID() uint16 { return d.dev }

var _ API = DeviceClient{}

// call performs one request/response exchange, retrying retryable
// failures per the client's Retries/Backoff/Dial configuration.
func (c *Client) call(dev uint16, cmd byte, payload []byte) (*bus.Reader, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	attempts := 1 + c.Retries
	if attempts < 1 {
		attempts = 1
	}
	backoff := c.Backoff
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.om.retries.Inc()
			if backoff > 0 {
				time.Sleep(backoff)
				backoff *= 2
			}
		}
		r, err := c.attempt(dev, cmd, payload)
		if err == nil {
			return r, nil
		}
		lastErr = err
		var se *StatusError
		if errors.As(err, &se) && !se.Retryable() {
			return nil, err
		}
		if connDead(err) {
			if c.Dial == nil {
				return nil, err
			}
			rw, derr := c.Dial()
			if derr != nil {
				lastErr = fmt.Errorf("pmic: client redial: %w", derr)
				continue
			}
			c.om.redials.Inc()
			c.init(rw)
		}
	}
	if attempts == 1 {
		return nil, lastErr
	}
	return nil, fmt.Errorf("pmic: giving up after %d attempts: %w", attempts, lastErr)
}

// connDead reports transport failures a retry over the same connection
// cannot recover from — only a redial can.
func connDead(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed)
}

// attempt performs one round trip.
func (c *Client) attempt(dev uint16, cmd byte, payload []byte) (*bus.Reader, error) {
	if c.Timeout > 0 {
		if d, ok := c.rw.(deadliner); ok {
			if err := d.SetDeadline(time.Now().Add(c.Timeout)); err != nil {
				return nil, fmt.Errorf("pmic: client deadline: %w", err)
			}
		}
	}
	// The sequence number wraps 255 -> 1, explicitly skipping 0: a zero
	// sequence never goes on the wire, so a zero-filled noise burst that
	// happens to frame-decode can never match a pending call.
	c.seq++
	if c.seq == 0 {
		c.seq = 1
	}
	seq := c.seq
	if err := bus.WriteFrame(c.rw, bus.Frame{Cmd: cmd, Seq: seq, Device: dev, Payload: payload}); err != nil {
		return nil, fmt.Errorf("pmic: client write: %w", err)
	}
	maxStale := c.MaxStale
	if maxStale <= 0 {
		maxStale = 64
	}
	for drained := 0; drained <= maxStale; {
		resp, err := c.sc.ReadFrame()
		if err != nil {
			return nil, fmt.Errorf("pmic: client read: %w", err)
		}
		if resp.Seq != seq || resp.Cmd != cmd|RespFlag || resp.Device != dev {
			if resp.Cmd == CmdPush && len(c.subs) > 0 {
				// A server push interleaved with the call: buffer it for
				// the next ReadPush instead of discarding telemetry. A
				// client that never subscribed treats pushes as stale —
				// that IS the legacy downgrade path. Buffered pushes do
				// not count against the stale budget: they are expected
				// traffic, not a flood symptom.
				c.bufferPush(resp)
				continue
			}
			c.om.staleFrames.Inc()
			drained++
			continue // stale response from a timed-out earlier call
		}
		r := bus.NewReader(resp.Payload)
		if status := r.U8(); status != StatusOK {
			return nil, statusToError(cmd, status)
		}
		return r, nil
	}
	return nil, ErrStaleFlood
}

// Ping implements API.
func (d DeviceClient) Ping() error {
	_, err := d.c.call(d.dev, CmdPing, nil)
	return err
}

func ratioPayload(ratios []float64) []byte {
	var w bus.Writer
	w.U8(byte(len(ratios)))
	for _, r := range ratios {
		w.F64(r)
	}
	return w.Bytes()
}

// Discharge implements API.
func (d DeviceClient) Discharge(ratios []float64) error {
	_, err := d.c.call(d.dev, CmdSetDischg, ratioPayload(ratios))
	return err
}

// Charge implements API.
func (d DeviceClient) Charge(ratios []float64) error {
	_, err := d.c.call(d.dev, CmdSetCharge, ratioPayload(ratios))
	return err
}

// ChargeOneFromAnother implements API.
func (d DeviceClient) ChargeOneFromAnother(x, y int, w, t float64) error {
	var p bus.Writer
	p.U8(byte(x)).U8(byte(y)).F64(w).F64(t)
	_, err := d.c.call(d.dev, CmdTransfer, p.Bytes())
	return err
}

// QueryBatteryStatus implements API.
func (d DeviceClient) QueryBatteryStatus() ([]BatteryStatus, error) {
	return d.QueryBatteryStatusInto(nil)
}

// QueryBatteryStatusInto implements API.
func (d DeviceClient) QueryBatteryStatusInto(dst []BatteryStatus) ([]BatteryStatus, error) {
	r, err := d.c.call(d.dev, CmdQueryStatus, nil)
	if err != nil {
		return nil, err
	}
	n := int(r.U8())
	out := slices.Grow(dst[:0], n)
	for i := 0; i < n; i++ {
		out = append(out, decodeStatus(r))
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("pmic: malformed status response: %w", err)
	}
	return out, nil
}

// SetChargeProfile implements API.
func (d DeviceClient) SetChargeProfile(batt int, profile string) error {
	var p bus.Writer
	p.U8(byte(batt)).Str(profile)
	_, err := d.c.call(d.dev, CmdSetProfile, p.Bytes())
	return err
}

// Ratios fetches the firmware's latched discharge and charge ratio
// registers.
func (d DeviceClient) Ratios() (dis, chg []float64, err error) {
	r, err := d.c.call(d.dev, CmdGetRatios, nil)
	if err != nil {
		return nil, nil, err
	}
	n := int(r.U8())
	dis = make([]float64, n)
	chg = make([]float64, n)
	for i := range dis {
		dis[i] = r.F64()
	}
	for i := range chg {
		chg[i] = r.F64()
	}
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("pmic: malformed ratios response: %w", err)
	}
	return dis, chg, nil
}

// Metrics fetches the remote controller's registry rendered in the
// text exposition format. Registries too big for one frame are paged
// across several requests by whole families and reassembled here, so
// the result is always the complete exposition. (A trailing
// "# truncated" comment can only appear in the degenerate case of a
// single family outgrowing a frame.)
func (d DeviceClient) Metrics() (string, error) {
	var sb strings.Builder
	var cursor uint64
	for {
		var w bus.Writer
		w.UVarint(cursor)
		r, err := d.c.call(d.dev, CmdMetrics, w.Bytes())
		if err != nil {
			return "", err
		}
		next := r.UVarint()
		sb.WriteString(r.Str())
		if err := r.Err(); err != nil {
			return "", fmt.Errorf("pmic: malformed metrics response: %w", err)
		}
		if next == 0 {
			return sb.String(), nil
		}
		if next <= cursor {
			return "", fmt.Errorf("pmic: metrics page cursor went backwards (%d after %d)", next, cursor)
		}
		cursor = next
	}
}

// SeriesNames lists the series the remote controller's recorder holds
// (empty when recording is off). The firmware sends as many sorted
// names as fit one frame.
func (d DeviceClient) SeriesNames() ([]string, error) {
	var w bus.Writer
	w.U8(SeriesList)
	r, err := d.c.call(d.dev, CmdSeries, w.Bytes())
	if err != nil {
		return nil, err
	}
	n := int(r.U16())
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.Str())
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("pmic: malformed series list response: %w", err)
	}
	return out, nil
}

// Series fetches one recorded series from the remote controller. The
// firmware keeps only the newest samples that fit one frame, advancing
// the window's FirstT past anything dropped; Total still counts every
// sample ever recorded.
func (d DeviceClient) Series(name string) (ts.Window, error) {
	var w bus.Writer
	w.U8(SeriesGet).Str(name)
	r, err := d.c.call(d.dev, CmdSeries, w.Bytes())
	if err != nil {
		return ts.Window{}, err
	}
	win := ts.Window{
		Name:   r.Str(),
		Kind:   ts.Kind(r.U8()),
		StepS:  r.F64(),
		FirstT: r.F64(),
		Total:  r.UVarint(),
	}
	n := r.UVarint()
	if n > uint64(r.Remaining())/8 {
		return ts.Window{}, fmt.Errorf("pmic: malformed series response: count %d exceeds payload", n)
	}
	win.Values = make([]float64, n)
	for i := range win.Values {
		win.Values[i] = r.F64()
	}
	if err := r.Err(); err != nil {
		return ts.Window{}, fmt.Errorf("pmic: malformed series response: %w", err)
	}
	return win, nil
}

// TraceEvents fetches the remote controller's trace ring, oldest
// first. The firmware keeps only the newest events that fit one frame.
func (d DeviceClient) TraceEvents() ([]obs.Event, error) {
	r, err := d.c.call(d.dev, CmdTrace, nil)
	if err != nil {
		return nil, err
	}
	n := int(r.U16())
	out := make([]obs.Event, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, DecodeEvent(r))
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("pmic: malformed trace response: %w", err)
	}
	return out, nil
}

// BatteryCount implements API.
func (d DeviceClient) BatteryCount() (int, error) {
	r, err := d.c.call(d.dev, CmdBattCount, nil)
	if err != nil {
		return 0, err
	}
	n := int(r.U8())
	if err := r.Err(); err != nil {
		return 0, err
	}
	return n, nil
}

// FleetInfo is the fleet endpoint's aggregate self-description, as
// reported by a FleetStat query.
type FleetInfo struct {
	Devices int // registered devices
	Shards  int // worker shards driving them
	Steps   uint64
	Churn   uint64 // devices ever added + removed

	// DeviceStepsPerSec is the aggregate emulation rate over the
	// server's lifetime (devices x steps / wall seconds); zero until the
	// fleet has stepped.
	DeviceStepsPerSec float64

	// CmdP99Seconds is the 99th-percentile protocol command latency
	// observed server-side, from bucketed histograms (an upper-bound
	// estimate); zero until commands have been served.
	CmdP99Seconds float64

	// Quarantined counts devices parked by shard supervision, and
	// Draining reports a fleet running down toward close. Both are
	// zero-valued against a pre-quarantine server, whose stat response
	// ends before these fields.
	Quarantined int
	Draining    bool
}

// FleetDevices lists the device ids registered on a fleet endpoint,
// lowest first. The server sends as many as fit one frame; Total is the
// full registry size, so len(ids) < total means the list was cut.
// A plain single-device server answers StatusBadCmd.
func (c *Client) FleetDevices() (ids []uint16, total int, err error) {
	var w bus.Writer
	w.U8(FleetList)
	r, err := c.call(0, CmdFleetInfo, w.Bytes())
	if err != nil {
		return nil, 0, err
	}
	total = int(r.UVarint())
	n := int(r.UVarint())
	if n > r.Remaining()/2 {
		return nil, 0, fmt.Errorf("pmic: malformed fleet list response: count %d exceeds payload", n)
	}
	ids = make([]uint16, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, r.U16())
	}
	if err := r.Err(); err != nil {
		return nil, 0, fmt.Errorf("pmic: malformed fleet list response: %w", err)
	}
	return ids, total, nil
}

// FleetStat fetches the fleet endpoint's aggregate counters.
func (c *Client) FleetStat() (FleetInfo, error) {
	var w bus.Writer
	w.U8(FleetStat)
	r, err := c.call(0, CmdFleetInfo, w.Bytes())
	if err != nil {
		return FleetInfo{}, err
	}
	fi := FleetInfo{
		Devices:           int(r.UVarint()),
		Shards:            int(r.UVarint()),
		Steps:             r.UVarint(),
		Churn:             r.UVarint(),
		DeviceStepsPerSec: r.F64(),
		CmdP99Seconds:     r.F64(),
	}
	if r.Err() == nil && r.Remaining() > 0 {
		// Quarantine/drain fields, appended by crash-safe fleet servers;
		// their absence (an older server) leaves the zero values.
		fi.Quarantined = int(r.UVarint())
		fi.Draining = r.U8() != 0
	}
	if err := r.Err(); err != nil {
		return FleetInfo{}, fmt.Errorf("pmic: malformed fleet stat response: %w", err)
	}
	return fi, nil
}

// FleetSnapshot asks the fleet endpoint to write a checkpoint to its
// configured path, returning where it landed and the encoded size. A
// fleet without a configured checkpoint path answers StatusBadArgs; a
// plain single-device server answers StatusBadCmd.
func (c *Client) FleetSnapshot() (path string, size int64, err error) {
	var w bus.Writer
	w.U8(FleetSnapshot)
	r, err := c.call(0, CmdFleetInfo, w.Bytes())
	if err != nil {
		return "", 0, err
	}
	path = r.Str()
	size = int64(r.UVarint())
	if err := r.Err(); err != nil {
		return "", 0, fmt.Errorf("pmic: malformed fleet snapshot response: %w", err)
	}
	return path, size, nil
}
