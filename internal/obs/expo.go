package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text exposition format (golden-tested, parsed by ParseText):
// one `# TYPE <name> <kind>` comment per family followed by its
// samples, families sorted by name. Scalar families expose one line;
// histograms expose cumulative buckets plus _sum and _count:
//
//	# TYPE sdb_pmic_steps_total counter
//	sdb_pmic_steps_total 86400
//	# TYPE sdb_emulator_step_seconds histogram
//	sdb_emulator_step_seconds_bucket{le="1e-06"} 120
//	sdb_emulator_step_seconds_bucket{le="+Inf"} 86400
//	sdb_emulator_step_seconds_sum 1.25
//	sdb_emulator_step_seconds_count 86400
//
// Values are formatted with strconv 'g' so the round trip through
// ParseText is exact.

// FormatLe renders a histogram bucket label, le="<bound>" (le="+Inf"
// for the overflow bucket). The exposition writes it and the recorder
// and `sdbctl watch` name bucket series with it, so a series has one
// name whichever path recorded it.
func FormatLe(bound float64) string {
	return `le="` + strconv.FormatFloat(bound, 'g', -1, 64) + `"`
}

// WriteText writes the whole registry in the exposition format. A nil
// registry writes nothing. The output is deterministic for a given
// metric state (families sorted by name, fixed formatting).
func (r *Registry) WriteText(w io.Writer) error {
	for _, f := range r.Snapshot() {
		if err := writeFamily(w, f); err != nil {
			return err
		}
	}
	return nil
}

// Text renders the registry to a string.
func (r *Registry) Text() string {
	var sb strings.Builder
	r.WriteText(&sb) // strings.Builder never errors
	return sb.String()
}

// Text renders one family in the exposition format — its header plus
// every sample line. The control protocol uses it to page a registry
// too big for one frame across several whole-family chunks.
func (f Family) Text() string {
	var sb strings.Builder
	writeFamily(&sb, f) // strings.Builder never errors
	return sb.String()
}

func writeFamily(w io.Writer, f Family) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
		return err
	}
	for _, s := range f.Samples {
		var line string
		switch {
		case s.Label == "":
			line = f.Name + " " + formatValue(s.Value)
		case s.Label == "sum" || s.Label == "count":
			line = f.Name + "_" + s.Label + " " + formatValue(s.Value)
		default: // bucket
			line = f.Name + "_bucket{" + s.Label + "} " + formatValue(s.Value)
		}
		if _, err := io.WriteString(w, line+"\n"); err != nil {
			return err
		}
	}
	return nil
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
