package driver

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCountLines pins the Figure 2 line count: non-blank lines, where
// blank means nothing but whitespace (as strings.TrimSpace defines it).
func TestCountLines(t *testing.T) {
	for _, c := range []struct {
		name, src string
		want      int
	}{
		{"empty", "", 0},
		{"newline only", "\n", 0},
		{"no trailing newline", "int x;", 1},
		{"trailing newline", "int x;\nint y;\n", 2},
		{"crlf", "int x;\r\n\r\nint y;\r\n", 2},
		{"whitespace-only lines", "int x;\n  \t\n\v\f\r\n   int y;\n", 2},
		{"leading blank lines", "\n\n\nint x;", 1},
		{"unicode space", "int x;\n\u00a0\u2003\nint y;", 2},
	} {
		if got := countLines(c.src); got != c.want {
			t.Errorf("%s: countLines(%q) = %d, want %d", c.name, c.src, got, c.want)
		}
		if ref := splitCount(c.src); ref != c.want {
			t.Errorf("%s: reference count %d, want %d", c.name, ref, c.want)
		}
	}
}

// TestCountLinesCorpus checks countLines against the reference on the
// corpus sources, whose counts Figure 2 reports.
func TestCountLinesCorpus(t *testing.T) {
	files, err := filepath.Glob("../corpus/programs/*.c")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus sources: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := countLines(string(src)), splitCount(string(src)); got != want {
			t.Errorf("%s: countLines = %d, want %d", filepath.Base(f), got, want)
		}
	}
}

// splitCount is the line count as strings.Split defines it, the
// reference countLines must agree with.
func splitCount(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}
