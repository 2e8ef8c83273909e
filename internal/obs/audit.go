package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// DefaultAuditCap is the audit ring capacity NewRegistry uses.
const DefaultAuditCap = 128

// AuditRecord is one structured policy decision: everything the SDB
// runtime fed into its charge/discharge allocation and what came out,
// so a policy misbehaving in an experiment can be replayed from its
// inputs. Fox et al.'s plan-based multi-battery policies are only
// debuggable when every decision is logged with its inputs; this is
// that record for our stack.
type AuditRecord struct {
	// Seq numbers records monotonically from log construction.
	Seq int64
	// TimeS is the simulated time of the policy tick (as last reported
	// via Runtime.NoteTime; 0 when the caller never reports one).
	TimeS float64
	// LoadW and ChargeW are the tick's inputs: present system load and
	// available external charging power.
	LoadW, ChargeW float64
	// DisPolicy and ChgPolicy name the policies consulted.
	DisPolicy, ChgPolicy string
	// ChgDir and DisDir are the CCB/RBL blend directives in [0,1]
	// (weight on RBL).
	ChgDir, DisDir float64
	// MeanSoC is the capacity-weighted pack state of charge the
	// policies saw.
	MeanSoC float64
	// Health is the runtime's degradation-ladder state when the
	// decision was pushed.
	Health string
	// Masked counts firmware-isolated cells masked out of the vectors.
	Masked int
	// Dis and Chg are the ratio vectors actually pushed to firmware.
	Dis, Chg []float64
	// Note annotates out-of-band records — health transitions and alert
	// fire/resolve events share the audit stream with policy decisions
	// so one chronological log tells the whole story. Empty for plain
	// policy records (and omitted from String, keeping the golden
	// format stable).
	Note string
}

// String serializes the record as one line — the format golden-tested
// and printed by sdbctl trace -audit:
//
//	#3 t=180.0s load=2.500W chg=0.000W dis=blended/0.50 chgp=blended/0.50 soc=81.2% health=healthy masked=0 disR=[0.700 0.300] chgR=[0.500 0.500]
func (a AuditRecord) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "#%d t=%.1fs load=%.3fW chg=%.3fW dis=%s/%.2f chgp=%s/%.2f soc=%.1f%% health=%s masked=%d",
		a.Seq, a.TimeS, a.LoadW, a.ChargeW, a.DisPolicy, a.DisDir, a.ChgPolicy, a.ChgDir,
		a.MeanSoC*100, a.Health, a.Masked)
	writeVec(&sb, " disR=", a.Dis)
	writeVec(&sb, " chgR=", a.Chg)
	if a.Note != "" {
		sb.WriteString(" note=")
		sb.WriteString(strconv.Quote(a.Note))
	}
	return sb.String()
}

func writeVec(sb *strings.Builder, label string, v []float64) {
	sb.WriteString(label)
	sb.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(sb, "%.3f", x)
	}
	sb.WriteByte(']')
}

// AuditLog is a bounded ring of policy decisions. Add stamps the
// sequence number and takes ownership of the record's slices (callers
// build a fresh record per decision). Nil-safe.
type AuditLog struct {
	mu   sync.Mutex
	ring ring[AuditRecord]
	seq  int64
}

// NewAuditLog returns a log holding up to cap records (minimum 1).
func NewAuditLog(cap int) *AuditLog {
	return &AuditLog{ring: newRing[AuditRecord](cap)}
}

// Add appends one record, stamping Seq.
func (l *AuditLog) Add(rec AuditRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	rec.Seq = l.seq
	l.ring.push(rec)
	l.mu.Unlock()
}

// Records returns a copy of the live records, oldest first.
func (l *AuditLog) Records() []AuditRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.snapshot()
}

// Dropped reports how many records the ring overwrote.
func (l *AuditLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(l.ring.dropped)
}
