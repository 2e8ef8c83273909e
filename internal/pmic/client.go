package pmic

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sdb/internal/bus"
	"sdb/internal/obs"
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

	// Push-subscription decode state (see subscribe.go): per-sub name
	// dictionaries and per-device delta bases, plus pushes that arrived
	// interleaved with request/response traffic, buffered for the next
	// ReadPush.
	subs    map[uint64]*subDecodeState
	pushBuf []*Push

	// Link-health observables (nil counters are no-ops).
	om clientMetrics
}

// clientMetrics bundles the bus client's observables, which NewClient
// wires to the process default registry.
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
// process default registry (a no-op unless a CLI installed one).
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

// statusText names each rejection status.
var statusText = map[byte]string{
	StatusBadArgs: "bad arguments", StatusBadIndex: "bad battery index",
	StatusInternal: "internal controller error", StatusBadCmd: "unknown command",
	StatusNoDevice: "no such device", StatusDraining: "fleet draining",
	StatusQuarantined: "device quarantined",
}

// Error implements error.
func (e *StatusError) Error() string {
	what, ok := statusText[e.Status]
	if !ok {
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

// maxStale bounds how many mismatched (stale or forged) response
// frames one read will discard before giving up: a peer spraying
// garbage must not pin the client in the drain loop forever.
const maxStale = 64

// ErrStaleFlood reports an attempt drowned by mismatched response
// frames (more than maxStale in a row). Retryable: the flood usually
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

// FleetInfo is the fleet endpoint's aggregate self-description: the
// fleet's Stat and the payload of a FleetStat query.
type FleetInfo struct {
	Devices int // registered devices
	Shards  int // worker shards driving them
	Steps   uint64
	Churn   uint64 // devices ever added + removed
	// DeviceStepsPerSec is devices x steps per wall second spent
	// ticking; zero until the fleet has stepped.
	DeviceStepsPerSec float64
	// CmdP99Seconds is the server-side 99th-percentile command latency,
	// an upper bound read from bucketed histograms; zero until commands
	// have been served.
	CmdP99Seconds float64
	// Quarantined counts devices parked by shard supervision, and
	// Draining reports a fleet running down toward close. A
	// pre-quarantine server's answer ends before both: they read zero.
	Quarantined int
	Draining    bool
}

// FleetInfoMode decodes a CmdFleetInfo request: its mode byte.
func FleetInfoMode(p []byte) (byte, bool) {
	if len(p) == 0 {
		return 0, false
	}
	return p[0], true
}

// FleetListReply encodes the answer to a FleetList: the registry size,
// then as many of the ids (lowest first) as fit one frame.
func FleetListReply(req bus.Frame, ids []uint16) bus.Frame {
	var w bus.Writer
	w.U8(StatusOK).UVarint(uint64(len(ids)))
	// Ids are 2 bytes each; leave headroom for status + the two varints.
	n := min(len(ids), (bus.MaxPayload-24)/2)
	w.UVarint(uint64(n))
	for _, id := range ids[:n] {
		w.U16(id)
	}
	return reply(req, w.Bytes())
}

// FleetDevices lists the device ids registered on a fleet endpoint,
// lowest first. The server sends as many as fit one frame; Total is the
// full registry size, so len(ids) < total means the list was cut.
// A plain single-device server answers StatusBadCmd.
func (c *Client) FleetDevices() (ids []uint16, total int, err error) {
	err = c.get(CmdFleetInfo, []byte{FleetList}, "fleet list", func(r *bus.Reader) error {
		total = int(r.UVarint())
		n := int(r.UVarint())
		if n > r.Remaining()/2 {
			return fmt.Errorf("pmic: malformed fleet list response: count %d exceeds payload", n)
		}
		ids = make([]uint16, n)
		for i := range ids {
			ids[i] = r.U16()
		}
		return nil
	})
	return ids, total, err
}

// FleetStatReply encodes the answer to a FleetStat. The quarantine and
// draining fields ride after the original six: old clients stop
// reading before them, new clients read them only when present, so
// both directions of the version skew decode cleanly.
func FleetStatReply(req bus.Frame, fi FleetInfo) bus.Frame {
	var w bus.Writer
	w.U8(StatusOK)
	w.UVarint(uint64(fi.Devices)).UVarint(uint64(fi.Shards)).UVarint(fi.Steps).UVarint(fi.Churn)
	w.F64(fi.DeviceStepsPerSec).F64(fi.CmdP99Seconds)
	w.UVarint(uint64(fi.Quarantined)).U8(boolByte(fi.Draining))
	return reply(req, w.Bytes())
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// FleetStat fetches the fleet endpoint's aggregate counters.
func (c *Client) FleetStat() (fi FleetInfo, err error) {
	err = c.get(CmdFleetInfo, []byte{FleetStat}, "fleet stat", func(r *bus.Reader) error {
		fi = FleetInfo{Devices: int(r.UVarint()), Shards: int(r.UVarint()), Steps: r.UVarint(),
			Churn: r.UVarint(), DeviceStepsPerSec: r.F64(), CmdP99Seconds: r.F64()}
		if r.Err() == nil && r.Remaining() > 0 {
			fi.Quarantined = int(r.UVarint())
			fi.Draining = r.U8() != 0
		}
		return nil
	})
	return fi, err
}

// FleetSnapshotReply encodes the answer to a FleetSnapshot: where the
// checkpoint landed and its encoded size.
func FleetSnapshotReply(req bus.Frame, path string, size int64) bus.Frame {
	var w bus.Writer
	w.U8(StatusOK).Str(path).UVarint(uint64(size))
	return reply(req, w.Bytes())
}

// FleetSnapshot asks the fleet endpoint to write a checkpoint to its
// configured path, returning where it landed and the encoded size. A
// fleet without a configured checkpoint path answers StatusBadArgs; a
// plain single-device server answers StatusBadCmd.
func (c *Client) FleetSnapshot() (path string, size int64, err error) {
	err = c.get(CmdFleetInfo, []byte{FleetSnapshot}, "fleet snapshot", func(r *bus.Reader) error {
		path, size = r.Str(), int64(r.UVarint())
		return nil
	})
	return path, size, err
}
