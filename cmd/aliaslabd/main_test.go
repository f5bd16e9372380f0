package main

import (
	"strings"
	"testing"
)

// The daemon has no fault-injection options: chaos runs arm a stage
// hook from the server's own tests instead. The unlistenable -addr
// keeps run from serving should a flag ever parse.
func TestRunRejectsRemovedFaultFlags(t *testing.T) {
	for _, flag := range [][]string{{"-faults", "x"}, {"-faults-seed", "1"}} {
		args := append([]string{"-addr", "bad:addr:x"}, flag...)
		var stderr strings.Builder
		if code := run(args, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined") {
			t.Errorf("run(%q) stderr: %s", args, stderr.String())
		}
	}
}

func TestRunRejectsPositionalArgs(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"extra"}, &stderr); code != 2 {
		t.Errorf("run(extra) = %d, want 2: %s", code, stderr.String())
	}
}

// ALIASLAB_FAULTS is not read: a value that is no fault spec changes
// nothing, and run gets as far as the listen error.
func TestRunIgnoresFaultsEnv(t *testing.T) {
	t.Setenv("ALIASLAB_FAULTS", "bogus")
	var stderr strings.Builder
	if code := run([]string{"-addr", "bad:addr:x"}, &stderr); code != 1 {
		t.Errorf("run = %d, want 1: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "bad:addr:x") {
		t.Errorf("stderr does not name the listen address: %s", stderr.String())
	}
}
