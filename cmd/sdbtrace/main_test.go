package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sdb/internal/obs/ts"
	"sdb/internal/obs/ts/store"
)

// TestMain re-executes this test binary as the sdbtrace command when
// SDBTRACE_TEST_ARGS is set, so the tests drive main's real flag
// handling and exit statuses.
func TestMain(m *testing.M) {
	if args := os.Getenv("SDBTRACE_TEST_ARGS"); args != "" {
		os.Args = append([]string{"sdbtrace"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes sdbtrace with args in a child process and returns its
// stdout, stderr and exit status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SDBTRACE_TEST_ARGS="+strings.Join(args, " "))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// gapStore records series g with a recording gap (t = 0..120 and
// 600..660, step 60) and series h beside it.
func gapStore(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "gap.sdbstor")
	st, err := store.Create(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range []float64{0, 60, 120, 600, 660} {
		if err := st.Append("g", ts.KindGauge, 60, tt, float64(i)+0.5); err != nil {
			t.Fatal(err)
		}
		if err := st.Append("h", ts.KindCounter, 60, float64(i)*60, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWindowFlagsAreUsageErrors: a NaN bound compares false with every
// time, so it used to read as "no bound" and print the whole store; a
// negative or NaN -down silently fell back to raw samples. Each is a
// usage error (exit status 2) that prints nothing on stdout.
func TestWindowFlagsAreUsageErrors(t *testing.T) {
	path := gapStore(t)
	for _, args := range []string{
		"export -since NaN",
		"export -until NaN",
		"export -since 5 -until 1",
		"export -series g -format json -since NaN -until 600",
		"query -series g -from NaN",
		"query -series g -to NaN",
		"query -series g -from 5 -to 1",
		"query -series g -down -5",
		"query -series g -down NaN",
		"query -series g -down +Inf",
	} {
		f := strings.Fields(args)
		stdout, stderr, code := run(t, append([]string{f[0], "-in", path}, f[1:]...)...)
		if code != 2 || stdout != "" {
			t.Errorf("sdbtrace %s: exit %d, stdout %q; want exit 2 and no output\n%s", args, code, stdout, stderr)
		}
	}
}

// TestQueryMatchesExportAcrossGap: raw `query -series` reads through
// the same walk as `export -series`, so its CSV is byte-identical, and
// across a recording gap it prints both sides at their own times
// instead of failing.
func TestQueryMatchesExportAcrossGap(t *testing.T) {
	path := gapStore(t)
	want := "series,kind,time_s,value\n" +
		"g,gauge,0,0.5\ng,gauge,60,1.5\ng,gauge,120,2.5\ng,gauge,600,3.5\ng,gauge,660,4.5\n"
	for _, args := range [][]string{
		{"query", "-in", path, "-series", "g"},
		{"export", "-in", path, "-series", "g"},
	} {
		stdout, stderr, code := run(t, args...)
		if code != 0 || stdout != want {
			t.Errorf("sdbtrace %s: exit %d\n%s%s\nwant\n%s", strings.Join(args, " "), code, stdout, stderr, want)
		}
	}
	window := "series,kind,time_s,value\ng,gauge,120,2.5\ng,gauge,600,3.5\n"
	q, _, _ := run(t, "query", "-in", path, "-series", "g", "-from", "100", "-to", "600")
	e, _, _ := run(t, "export", "-in", path, "-series", "g", "-since", "100", "-until", "600")
	if q != window || e != window {
		t.Errorf("windowed query\n%s\nexport\n%s\nwant\n%s", q, e, window)
	}
	if _, stderr, code := run(t, "query", "-in", path, "-series", "nope"); code != 1 || !strings.Contains(stderr, `no series named "nope"`) {
		t.Errorf("unknown series: exit %d, %s", code, stderr)
	}
}
