package firmware

import (
	"errors"

	"sdb/internal/bus"
	"sdb/internal/pmic"
)

// statusErr converts a controller error into a protocol status code.
func statusErr(err error) byte {
	switch {
	case err == nil:
		return pmic.StatusOK
	case errors.Is(err, ErrBadIndex):
		return pmic.StatusBadIndex
	default:
		return pmic.StatusBadArgs
	}
}

// Dispatch executes one request frame and builds the response, which
// echoes the request's sequence number and device id. The controller
// runs no frame loop of its own: a server (internal/fleet) reads each
// frame off a connection and routes it to the addressed controller's
// Dispatch. The pmic codec reads every request and writes every reply.
func (c *Controller) Dispatch(req bus.Frame) bus.Frame {
	switch req.Cmd {
	case pmic.CmdPing:
		return pmic.Reply(req, pmic.StatusOK)

	case pmic.CmdSetDischg, pmic.CmdSetCharge:
		ratios, ok := pmic.DecodeRatios(req.Payload)
		if !ok {
			return pmic.Reply(req, pmic.StatusBadArgs)
		}
		if req.Cmd == pmic.CmdSetDischg {
			return pmic.Reply(req, statusErr(c.Discharge(ratios)))
		}
		return pmic.Reply(req, statusErr(c.Charge(ratios)))

	case pmic.CmdTransfer:
		x, y, w, secs, ok := pmic.DecodeTransfer(req.Payload)
		if !ok {
			return pmic.Reply(req, pmic.StatusBadArgs)
		}
		return pmic.Reply(req, statusErr(c.ChargeOneFromAnother(x, y, w, secs)))

	case pmic.CmdQueryStatus:
		sts, err := c.QueryBatteryStatus()
		if err != nil {
			return pmic.Reply(req, pmic.StatusInternal)
		}
		return pmic.StatusReply(req, sts)

	case pmic.CmdSetProfile:
		batt, name, ok := pmic.DecodeProfile(req.Payload)
		if !ok {
			return pmic.Reply(req, pmic.StatusBadArgs)
		}
		return pmic.Reply(req, statusErr(c.SetChargeProfile(batt, name)))

	case pmic.CmdBattCount:
		n, _ := c.BatteryCount()
		return pmic.BattCountReply(req, n)

	case pmic.CmdGetRatios:
		dis, chg := c.Ratios()
		return pmic.RatiosReply(req, dis, chg)

	case pmic.CmdMetrics:
		cursor, ok := pmic.DecodeCursor(req.Payload)
		if !ok {
			return pmic.Reply(req, pmic.StatusBadArgs)
		}
		return pmic.MetricsReply(req, c.om.reg, cursor)

	case pmic.CmdTrace:
		return pmic.TraceReply(req, c.om.tracer.Events())

	case pmic.CmdSeries:
		// Like CmdMetrics, a controller without a recorder answers with
		// zero series: recording off is a normal state.
		q, ok := pmic.DecodeSeriesRequest(req.Payload)
		switch {
		case !ok:
			return pmic.Reply(req, pmic.StatusBadArgs)
		case q.Mode == pmic.SeriesGet:
			win, ok := c.Recorder().Get(q.Name)
			if !ok {
				return pmic.Reply(req, pmic.StatusBadIndex)
			}
			return pmic.SeriesReply(req, win)
		}
		return pmic.SeriesListReply(req, c.Recorder().Names(), q.Cursor)
	}
	return pmic.Reply(req, pmic.StatusBadCmd)
}
