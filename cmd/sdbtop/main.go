// Command sdbtop is a live terminal dashboard for a fleet endpoint,
// built entirely on the push subscription protocol: one CmdSubscribe
// opens a fleet-wide metrics+alerts stream and the server pushes
// delta-encoded CmdPush frames from its tick barrier — sdbtop never
// polls. The display is the fleet operator's vital signs: a summary
// row (devices, steps/s, firing alerts), a health-ladder histogram,
// the top-N most at-risk devices by a configurable sort key, and the
// rolling alert transition log.
//
//	sdbtop -addr localhost:7070
//	sdbtop -sort health -n 20 -every 2s
//	sdbtop -cadence 300 -once
//
// Disconnects degrade gracefully: the last frame stays up, the client
// redials with backoff, and a fresh subscription resumes the stream
// (the server re-announces its dictionary, so no state is lost).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"time"

	"sdb/internal/pmic"
)

// model is the dashboard's decoded view of the fleet, folded together
// from metric pushes (only changed values arrive) and alert pushes.
type model struct {
	devs   map[uint16]map[string]float64
	fleet  map[string]float64
	alerts []pmic.AlertTransition
	frames uint64
	drops  uint64
}

func newModel() *model {
	return &model{devs: map[uint16]map[string]float64{}, fleet: map[string]float64{}}
}

func (m *model) apply(p *pmic.Push) {
	m.frames++
	if p.Dropped > m.drops { // cumulative server-side counter
		m.drops = p.Dropped
	}
	switch p.Kind {
	case pmic.PushMetrics:
		for _, pd := range p.Devices {
			if pd.Device == pmic.PushFleetDevice {
				for _, s := range pd.Values {
					m.fleet[s.Name] = s.Value
				}
				continue
			}
			dv := m.devs[pd.Device]
			if dv == nil {
				dv = map[string]float64{}
				m.devs[pd.Device] = dv
			}
			for _, s := range pd.Values {
				dv[s.Name] = s.Value
			}
		}
	case pmic.PushAlert:
		m.alerts = append(m.alerts, p.Alerts...)
		if len(m.alerts) > 256 {
			m.alerts = m.alerts[len(m.alerts)-256:]
		}
	}
}

// sortKeys maps -sort values to (metric, ascending): ascending soc
// surfaces the emptiest batteries, descending health the sickest.
var sortKeys = map[string]struct {
	metric string
	asc    bool
}{
	"soc":    {"soc", true},
	"health": {"health", false},
	"temp":   {"temp_c", false},
	"energy": {"energy_j", true},
	"steps":  {"steps", false},
}

var healthNames = [...]string{"healthy", "degraded", "safemode", "failed"}

func (m *model) render(w *strings.Builder, addr, sortKey string, topN int, alertN int) {
	key := sortKeys[sortKey]
	fmt.Fprintf(w, "sdbtop - %s   %s   frames %d", addr, time.Now().Format("15:04:05"), m.frames)
	if m.drops > 0 {
		fmt.Fprintf(w, "   (server dropped %d: consumer too slow)", m.drops)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "fleet: %.0f devices, %.0f running, %.0f quarantined | %.0f steps total | %.0f steps/s | alerts firing: %.0f\n",
		m.fleet["fleet_devices"], m.fleet["fleet_running"], m.fleet["fleet_quarantined"],
		m.fleet["fleet_steps_total"], m.fleet["fleet_steps_per_sec"], m.fleet["fleet_alerts_firing"])

	// Health ladder histogram across the whole visible fleet.
	var ladder [4]int
	for _, dv := range m.devs {
		h := int(dv["health"])
		if h >= 0 && h < len(ladder) {
			ladder[h]++
		}
	}
	fmt.Fprint(w, "health:")
	for i, n := range ladder {
		fmt.Fprintf(w, " %s %d", healthNames[i], n)
		if i < len(ladder)-1 {
			fmt.Fprint(w, " ·")
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)

	// Top-N devices by the sort key.
	ids := make([]uint16, 0, len(m.devs))
	for id := range m.devs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := m.devs[ids[i]][key.metric], m.devs[ids[j]][key.metric]
		if a != b {
			if key.asc {
				return a < b
			}
			return a > b
		}
		return ids[i] < ids[j] // total order: stable frames
	})
	if topN > len(ids) {
		topN = len(ids)
	}
	fmt.Fprintf(w, "top %d by %s:\n", topN, sortKey)
	fmt.Fprintf(w, "%6s %7s %9s %8s %12s %9s\n", "DEV", "SOC", "HEALTH", "TEMP C", "ENERGY J", "STEPS")
	for _, id := range ids[:topN] {
		dv := m.devs[id]
		h := "?"
		if i := int(dv["health"]); i >= 0 && i < len(healthNames) {
			h = healthNames[i]
		}
		fmt.Fprintf(w, "%6d %6.1f%% %9s %8.1f %12.1f %9.0f\n",
			id, dv["soc"]*100, h, dv["temp_c"], dv["energy_j"], dv["steps"])
	}

	// Alert log pane, newest last.
	fmt.Fprintf(w, "\nalerts (last %d of %d):\n", min(alertN, len(m.alerts)), len(m.alerts))
	start := len(m.alerts) - alertN
	if start < 0 {
		start = 0
	}
	for _, a := range m.alerts[start:] {
		fmt.Fprintf(w, " t=%-9.1f dev=%-5d %-12s %s->%s (value %g, threshold %g)\n",
			a.TimeS, a.Device, a.Rule, a.From, a.To, a.Value, a.Threshold)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sdbtop: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "localhost:7070", "fleet endpoint address")
	topN := flag.Int("n", 15, "devices shown in the top table")
	sortKey := flag.String("sort", "soc", "top-table sort key: soc|health|temp|energy|steps")
	every := flag.Duration("every", time.Second, "screen refresh interval")
	cadence := flag.Float64("cadence", 0, "minimum simulated seconds between metric pushes per device (0 = every tick barrier)")
	alertN := flag.Int("alerts", 8, "alert log lines shown")
	once := flag.Bool("once", false, "collect one refresh interval, print a single frame, exit (for scripts)")
	flag.Parse()
	if _, ok := sortKeys[*sortKey]; !ok {
		fatalf("unknown -sort %q (soc|health|temp|energy|steps)", *sortKey)
	}

	conn, err := net.Dial("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	c := pmic.NewClient(conn)
	c.Timeout = 5 * time.Second
	// Redial hook: calls (and therefore re-subscribes) survive a server
	// bounce; ReadPush errors route back through Subscribe below.
	c.Dial = func() (io.ReadWriter, error) {
		return net.Dial("tcp", *addr)
	}

	spec := pmic.SubscriptionSpec{
		Fleet:    true,
		Signals:  pmic.SubSigMetrics | pmic.SubSigAlerts,
		CadenceS: *cadence,
	}
	if _, err := c.Subscribe(spec); err != nil {
		fatalf("subscribe: %v", err)
	}

	m := newModel()
	last := time.Now()
	disconnected := false
	for {
		p, err := c.ReadPush(*every)
		switch {
		case err == nil:
			m.apply(p)
			disconnected = false
		case errors.Is(err, os.ErrDeadlineExceeded):
			// Quiet interval: render what we have.
		default:
			// Transport died: keep the last frame up, re-subscribe with
			// backoff through the client's redial hook.
			if !disconnected {
				fmt.Fprintf(os.Stderr, "sdbtop: connection lost (%v), reconnecting\n", err)
				disconnected = true
			}
			time.Sleep(*every)
			if _, err := c.Subscribe(spec); err != nil {
				continue // still down; keep trying
			}
			disconnected = false
			continue
		}
		if time.Since(last) < *every && !*once {
			continue
		}
		last = time.Now()
		var sb strings.Builder
		m.render(&sb, *addr, *sortKey, *topN, *alertN)
		if *once {
			fmt.Print(sb.String())
			return
		}
		// ANSI home+clear keeps the refresh flicker-free on any vt100.
		fmt.Print("\x1b[H\x1b[2J" + sb.String())
	}
}
