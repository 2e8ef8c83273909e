package store

import (
	"path/filepath"
	"testing"
)

// TestCreateErrors: page-size bounds and refusal to clobber.
func TestCreateErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(filepath.Join(dir, "a"), Options{PageSize: MinPageSize - 1}); err == nil {
		t.Fatal("Create accepted an undersized page")
	}
	if _, err := Create(filepath.Join(dir, "a"), Options{PageSize: MaxPageSize + 1}); err == nil {
		t.Fatal("Create accepted an oversized page")
	}
	s, err := Create(filepath.Join(dir, "a"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := Create(filepath.Join(dir, "a"), Options{}); err == nil {
		t.Fatal("Create clobbered an existing file")
	}
	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("Open invented a missing file")
	}
}
