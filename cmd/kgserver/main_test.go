package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLiveCompactDir(t *testing.T) {
	tmp := t.TempDir()
	nested := filepath.Join(tmp, "a", "b")
	got, err := liveCompactDir(nested)
	if err != nil || got != nested {
		t.Fatalf("liveCompactDir(%q) = %q, %v", nested, got, err)
	}
	if fi, err := os.Stat(nested); err != nil || !fi.IsDir() {
		t.Fatalf("-livedir was not created: %v", err)
	}

	// A path that cannot become a directory fails at start-up, not on the
	// first compaction.
	file := filepath.Join(tmp, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := liveCompactDir(filepath.Join(file, "sub")); err == nil {
		t.Error("liveCompactDir under a regular file succeeded")
	}

	def, err := liveCompactDir("")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(def)
	if fi, err := os.Stat(def); err != nil || !fi.IsDir() {
		t.Errorf("default live directory %q not created: %v", def, err)
	}
}

// -live must never serve an mmap'ed base: its dictionary strings would alias
// a mapping the first compaction unmaps.
func TestSnapshotMmap(t *testing.T) {
	for _, tc := range []struct {
		mode       string
		live       bool
		mmap, note bool
	}{
		{"mmap", false, true, false},
		{"copy", false, false, false},
		{"mmap", true, false, true},
		{"copy", true, false, false},
		{"", true, false, true},
	} {
		mmap, note := snapshotMmap(tc.mode, tc.live)
		if mmap != tc.mmap || (note != "") != tc.note {
			t.Errorf("snapshotMmap(%q, live=%v) = %v, %q; want mmap=%v, note=%v",
				tc.mode, tc.live, mmap, note, tc.mmap, tc.note)
		}
	}
}
