package sim

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The machinery of the paper comparison: the vocabulary claims_test.go
// is written in, the one evaluator every Test*Shape calls, the test
// binary's shared run of the registry, and the EXPERIMENTS.md generator.

// A claim is one statement the paper makes about an experiment and the
// check that holds the experiment's table to it.
type claim struct {
	source, paper string // where the paper says it, and what
	check         check
	note          string // how the table reads the claim or, on a miss, why the model misses it
	// miss names a deviation: the check must fail, and the document lists
	// it with the note as reason, so no deviation outlives its gap.
	miss bool
}

func says(paper string, c check) claim    { return claim{paper: paper, check: c} }
func (c claim) because(note string) claim { c.note = note; return c }

func misses(paper string, c check, why string) claim {
	return claim{paper: paper, check: c, note: why, miss: true}
}

// on gives claims their source in the paper.
func on(source string, cs ...claim) []claim {
	for i := range cs {
		cs[i].source = source
	}
	return cs
}

// A check reports the values it read, as the document prints them, and
// whether they hold; err is a table it cannot read.
type check struct {
	desc string
	eval func(*Table) (measured string, holds bool, err error)
}

// reading is a value a selector read and how the document prints it:
// the table's cell text, or the expression it was derived by.
type reading struct {
	text string
	v    float64
}

// sel reads values out of a table.
type sel struct {
	desc string
	read func(*Table) ([]reading, error)
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

// at reads column col in the rows matching the column/value pairs kv.
func at(col string, kv ...string) sel {
	desc, sep := "`"+col+"`", " at "
	for i := 0; i+1 < len(kv); i += 2 {
		desc, sep = desc+sep+kv[i]+" = "+kv[i+1], ", "
	}
	return sel{desc, func(tab *Table) ([]reading, error) {
		var out []reading
	rows:
		for i := range tab.Rows {
			for k := 0; k+1 < len(kv); k += 2 {
				if s, _ := tab.Cell(i, kv[k]); s != kv[k+1] {
					continue rows
				}
			}
			s, _ := tab.Cell(i, col)
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: cell %q is not a number", desc, s)
			}
			out = append(out, reading{s, v})
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("%s: no such row", desc)
		}
		return out, nil
	}}
}

func rowCount() sel {
	return sel{"rows", func(t *Table) ([]reading, error) {
		return []reading{{strconv.Itoa(len(t.Rows)), float64(len(t.Rows))}}, nil
	}}
}

// noted reads the number pattern's one group matches in the table note.
func noted(desc, pattern string) sel {
	re := regexp.MustCompile(pattern)
	return sel{"note: " + desc, func(tab *Table) ([]reading, error) {
		m := re.FindStringSubmatch(tab.Notes)
		if m == nil {
			return nil, fmt.Errorf("note %q does not match %q", tab.Notes, pattern)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		return []reading{{m[1], v}}, err
	}}
}

func value(v float64) sel {
	return sel{num(v), func(*Table) ([]reading, error) { return []reading{{num(v), v}}, nil }}
}

// derive combines two single values; a derived operand prints in parens.
func derive(a, b sel, op string, f func(x, y float64) float64) sel {
	return sel{"(" + a.desc + " " + op + " " + b.desc + ")", func(tab *Table) ([]reading, error) {
		var rs [2]reading
		for i, s := range []sel{a, b} {
			got, err := s.read(tab)
			if err == nil && len(got) != 1 {
				err = fmt.Errorf("%s reads %d values, want one", s.desc, len(got))
			}
			if err != nil {
				return nil, err
			}
			if rs[i] = got[0]; strings.Contains(rs[i].text, " ") {
				rs[i].text = "(" + rs[i].text + ")"
			}
		}
		v := f(rs[0].v, rs[1].v)
		return []reading{{rs[0].text + " " + op + " " + rs[1].text + " = " + num(v), v}}, nil
	}}
}

func ratio(a, b sel) sel { return derive(a, b, "/", func(x, y float64) float64 { return x / y }) }
func diff(a, b sel) sel  { return derive(a, b, "−", func(x, y float64) float64 { return x - y }) }

func sum(s sel) sel {
	return sel{"the sum of " + s.desc, func(tab *Table) ([]reading, error) {
		rs, err := s.read(tab)
		var total float64
		for _, r := range rs {
			total += r.v
		}
		return []reading{{fmt.Sprintf("sum of %d cells = %s", len(rs), num(total)), total}}, err
	}}
}

// span reads s: its smallest and largest value, and how to print them.
func span(tab *Table, s sel) (lo, hi reading, text string, err error) {
	rs, err := s.read(tab)
	if err != nil {
		return lo, hi, "", err
	}
	byValue := func(a, b reading) int { return cmp.Compare(a.v, b.v) }
	lo, hi, text = slices.MinFunc(rs, byValue), slices.MaxFunc(rs, byValue), rs[0].text
	if len(rs) > 1 {
		text = lo.text + " … " + hi.text
	}
	return lo, hi, text, nil
}

// within holds every value s reads to [lo, hi]; an infinite end is open.
func within(s sel, lo, hi float64) check {
	bound := "in [" + num(lo) + ", " + num(hi) + "]"
	switch {
	case lo == hi:
		bound = "= " + num(lo)
	case math.IsInf(lo, -1):
		bound = "≤ " + num(hi)
	case math.IsInf(hi, 1):
		bound = "≥ " + num(lo)
	}
	return check{s.desc + " " + bound, func(tab *Table) (string, bool, error) {
		low, high, text, err := span(tab, s)
		return text, low.v >= lo && high.v <= hi, err
	}}
}

// less holds the values ss read to strictly ascending order: every
// value of one operand below every value of the next.
func less(ss ...sel) check {
	return check{join(ss, " < "), func(tab *Table) (string, bool, error) {
		texts := make([]string, len(ss))
		holds, prev := true, math.Inf(-1)
		for i, s := range ss {
			lo, hi, text, err := span(tab, s)
			if err != nil {
				return "", false, err
			}
			texts[i], holds, prev = text, holds && prev < lo.v, hi.v
		}
		return strings.Join(texts, " < "), holds, nil
	}}
}

// rises and falls hold each column ss read strictly monotone down the
// table's rows.
func rises(ss ...sel) check { return monotone("rises", 1, ss) }
func falls(ss ...sel) check { return monotone("falls", -1, ss) }

func monotone(verb string, dir float64, ss []sel) check {
	return check{join(ss, "; ") + " " + verb + " row by row", func(tab *Table) (string, bool, error) {
		var runs []string
		holds := true
		for _, s := range ss {
			rs, err := s.read(tab)
			if err != nil {
				return "", false, err
			}
			for i := 1; i < len(rs); i++ {
				holds = holds && (rs[i].v-rs[i-1].v)*dir > 0
			}
			runs = append(runs, rs[0].text+" → "+rs[len(rs)-1].text)
		}
		return strings.Join(runs, "; "), holds, nil
	}}
}

func join(ss []sel, sep string) string {
	descs := make([]string, len(ss))
	for i, s := range ss {
		descs[i] = s.desc
	}
	return strings.Join(descs, sep)
}

// evalClaim evaluates c against tab: the values read, or why c fails.
func evalClaim(tab *Table, c claim) (string, error) {
	measured, holds, err := c.check.eval(tab)
	if err == nil && holds == c.miss {
		err = fmt.Errorf("measured %s", measured)
		if c.miss {
			err = fmt.Errorf("the named deviation holds now (%s): drop it", measured)
		}
	}
	return measured, err
}

// checkClaims is the one evaluator: it holds each experiment's shared-run
// table to a non-empty cell per column and to every claim on it.
func checkClaims(t *testing.T, ids ...string) {
	t.Helper()
	for _, id := range ids {
		tab := sharedTable(t, id)
		for i, row := range tab.Rows {
			if len(row) != len(tab.Columns) || slices.Contains(row, "") {
				t.Errorf("%s: row %d incomplete: %q", id, i, row)
			}
		}
		for _, c := range claims[id] {
			if _, err := evalClaim(tab, c); err != nil {
				t.Errorf("%s, %s (%s): %s: %v", id, c.source, c.paper, c.check.desc, err)
			}
		}
	}
}

// registryRuns holds one run of the registry per GOMAXPROCS value (-cpu
// 1,2 makes two), slow experiments left out under -short.
var (
	registryMu   sync.Mutex
	registryRuns = map[int]*BatchResult{}
)

func registryRun() *BatchResult {
	registryMu.Lock()
	defer registryMu.Unlock()
	procs := runtime.GOMAXPROCS(0)
	if registryRuns[procs] == nil {
		exps := All()
		if testing.Short() {
			exps = Fast()
		}
		registryRuns[procs] = (&Runner{}).Run(context.Background(), exps)
	}
	return registryRuns[procs]
}

// sharedTable returns id's table from the shared run, or skips if -short left it out.
func sharedTable(t *testing.T, id string) *Table {
	t.Helper()
	for _, j := range registryRun().Jobs {
		if j.Experiment.ID == id {
			if j.Err != nil {
				t.Fatalf("%s: %v", id, j.Err)
			}
			return j.Table
		}
	}
	if _, ok := ByID(id); !ok {
		t.Fatalf("%s is not a registry id", id)
	}
	t.Skipf("%s is slow", id)
	return nil
}

// TestClaimsCoverRegistry: the claims' keys are the registry ids.
func TestClaimsCoverRegistry(t *testing.T) {
	ids := IDs()
	for _, id := range ids {
		if len(claims[id]) == 0 {
			t.Errorf("%s has no claims", id)
		}
	}
	for id := range claims {
		if !slices.Contains(ids, id) {
			t.Errorf("claims for %s, which is not a registry id", id)
		}
	}
}

func rendered(tab *Table) []byte {
	var buf bytes.Buffer
	_ = tab.Fprint(&buf) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// TestExperimentsMatchDigests: every experiment of the shared run
// renders the table digest sdbperf/figures.sha256 pins, whatever the
// core count, and the file pins no other id. ci.sh runs it under
// -cpu 1,2, so one core and two render the same bytes.
func TestExperimentsMatchDigests(t *testing.T) {
	text, err := os.ReadFile("../../sdbperf/figures.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for f := strings.Fields(string(text)); len(f) >= 2; f = f[2:] {
		if _, ok := ByID(f[1]); !ok {
			t.Errorf("figures.sha256 pins %s, which is not a registry id", f[1])
		}
		want[f[1]] = f[0]
	}
	for _, j := range registryRun().Jobs {
		if j.Err != nil {
			t.Fatalf("%s: %v", j.Experiment.ID, j.Err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(rendered(j.Table))); got != want[j.Experiment.ID] {
			t.Errorf("%s: table digest %s, want %s", j.Experiment.ID, got, want[j.Experiment.ID])
		}
	}
}

// TestExperimentsDocument holds EXPERIMENTS.md to the document
// experimentsDoc generates from the shared run, whose tables
// TestExperimentsMatchDigests holds to their pins. Regenerate it with
//
//	SDB_EXPERIMENTS_UPDATE=1 go test -run TestExperimentsDocument ./internal/sim
func TestExperimentsDocument(t *testing.T) {
	if testing.Short() {
		t.Skip("the document needs every experiment")
	}
	const path = "../../EXPERIMENTS.md"
	doc, err := experimentsDoc(registryRun())
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("SDB_EXPERIMENTS_UPDATE") != "" {
		err = os.WriteFile(path, doc, 0o644)
	} else if committed, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(doc, committed) {
		err = fmt.Errorf("EXPERIMENTS.md is not the generated document (%v); regenerate it with "+
			"SDB_EXPERIMENTS_UPDATE=1 go test -run TestExperimentsDocument ./internal/sim", rerr)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// experimentsDoc renders EXPERIMENTS.md from a run of the registry: an
// index, the named deviations, then per experiment its table and every
// claim on it with the values measured.
func experimentsDoc(b *BatchResult) ([]byte, error) {
	var idx, devs, body strings.Builder
	for _, j := range b.Jobs {
		id := j.Experiment.ID
		if j.Err != nil {
			return nil, fmt.Errorf("%s: %v", id, j.Err)
		}
		tab := rendered(j.Table)
		fmt.Fprintf(&body, "\n## %s: %s\n\nBench `BenchmarkExperiment/%s`, cost %s.\n\n```text\n%s```\n\n"+
			"| Source | Paper | Check | Measured | Status |\n|---|---|---|---|---|\n",
			id, j.Experiment.Title, id, j.Experiment.Cost, tab[:len(tab)-1])
		var notes []string
		misses := 0
		for _, c := range claims[id] {
			measured, err := evalClaim(j.Table, c)
			if err != nil {
				return nil, fmt.Errorf("%s, %s: %s: %v", id, c.source, c.check.desc, err)
			}
			paper, status := c.paper, "holds"
			if c.note != "" {
				notes = append(notes, fmt.Sprintf("%d. %s\n", len(notes)+1, c.note))
				paper += fmt.Sprintf(" (note %d)", len(notes))
			}
			if c.miss {
				misses, status = misses+1, "**deviation**"
				fmt.Fprintf(&devs, "| %s | %s | %s | %s | %s | %s |\n", id, c.source, c.paper, c.check.desc, measured, c.note)
			}
			fmt.Fprintf(&body, "| %s | %s | %s | %s | %s |\n", c.source, paper, c.check.desc, measured, status)
		}
		if len(notes) > 0 {
			body.WriteString("\nNotes:\n\n" + strings.Join(notes, ""))
		}
		fmt.Fprintf(&idx, "| %s | %s | %s | %d | %d |\n", id, j.Experiment.Title, j.Experiment.Cost, len(claims[id]), misses)
	}
	return []byte(experimentsIntro +
		"\n## Index\n\n| Experiment | Title | Cost | Claims | Deviations |\n|---|---|---|---|---|\n" + idx.String() +
		"\n## Deviations\n\nThe claims the model misses, each with its measured value and the reason.\n\n" +
		"| Experiment | Source | Paper | Check | Measured | Why |\n|---|---|---|---|---|---|\n" + devs.String() +
		body.String()), nil
}

const experimentsIntro = `# Experiments: paper vs. measured

<!-- Generated by TestExperimentsDocument (internal/sim) from the
registry, the claims in internal/sim/claims_test.go and one run of
every experiment; a hand edit fails that test. Regenerate with
SDB_EXPERIMENTS_UPDATE=1 go test -run TestExperimentsDocument ./internal/sim -->

How each experiment compares with the SOSP 2015 paper: the tables and
figures of its evaluation (§7: Figures 1, 6, 8 and 10–14, Tables 1
and 2), the design ablations and the extension experiments. Each
section embeds the measured table, which hashes to its line in
` + "`sdbperf/figures.sha256`" + `, and the paper's claims about it: each with the
check that holds the table to it (evaluated by the experiment's
` + "`Test…Shape`" + ` test) and the values the check read. A **deviation** is a claim
the model misses; its check must keep failing, and its note says why.
Regenerate a table with ` + "`go run ./cmd/sdbbench -run <id>`" + ` or benchmark it
as ` + "`BenchmarkExperiment/<id>`" + `. Absolute numbers are not expected to match
the authors' testbed, since the substrate is a calibrated simulator;
the target is the shape: who wins, by roughly what factor, and where
the crossovers fall.
`
