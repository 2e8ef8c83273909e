package sdb

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sdb/internal/sim"
)

// TestDocumentedNamesResolve: every backticked Test…, Benchmark… and
// Fuzz… name in README.md, DESIGN.md and EXPERIMENTS.md names a func in
// the repository, and every BenchmarkExperiment/<id> a registry id.
func TestDocumentedNamesResolve(t *testing.T) {
	funcs := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile(`^(?:Test|Benchmark|Fuzz)[A-Z0-9_]`)
	ident := regexp.MustCompile(`^\w+$`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// The odd pieces between backticks are code spans; a fenced
		// block's body counts as one and never starts with a test name.
		for i, span := range strings.Split(string(text), "`") {
			if i%2 == 0 || !named.MatchString(span) {
				continue
			}
			name, id, sub := strings.Cut(span, "/")
			if !ident.MatchString(name) || !funcs[name] {
				t.Errorf("%s: `%s` names no func in the repository", doc, span)
			} else if _, ok := sim.ByID(id); name == "BenchmarkExperiment" && sub && id != "<id>" && !ok {
				t.Errorf("%s: `%s` names no registry id", doc, span)
			}
		}
	}
}
