package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aliaslab/internal/corpusgen"
)

func runCmd(t *testing.T, stdin io.Reader, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, stdin, &out, &errb)
	return out.String(), errb.String(), code
}

// nonEmpty fails the test unless path is a file with content.
func nonEmpty(t *testing.T, path string) {
	t.Helper()
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("%s not written (err %v)", filepath.Base(path), err)
	}
}

// TestFrontierHonoursObservabilityFlags: the frontier study writes the
// trace file and heap profile it is asked for and prints the metrics
// table after its own, as the corpus batch does.
func TestFrontierHonoursObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	trace, mem := filepath.Join(dir, "trace.json"), filepath.Join(dir, "mem.pprof")
	out, errOut, code := runCmd(t, nil, "-backend", "frontier", "-jobs", "2",
		"-trace-out", trace, "-memprofile", mem, "-metrics")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	nonEmpty(t, trace)
	nonEmpty(t, mem)
	if !strings.Contains(out, "indirect agreement") || !strings.Contains(out, "units.analyzed") {
		t.Errorf("want the frontier table then the metrics table, got:\n%s", out)
	}
	if !strings.Contains(errOut, "frontier") {
		t.Errorf("-trace-out implies the span tree on stderr, got:\n%s", errOut)
	}
}

// TestPopulationRefusesFlagsItCannotHonour: the population study has no
// tracer, metrics or figure tables, so those flags end in a usage error
// before stdin is read, not in a silent exit 0.
func TestPopulationRefusesFlagsItCannotHonour(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-trace"},
		{"-trace-out", filepath.Join(dir, "trace.json")},
		{"-metrics"},
		{"-fig", "4"},
		{"-backend", "andersen"},
	} {
		_, errOut, code := runCmd(t, strings.NewReader("not a stream"), append([]string{"-population"}, args...)...)
		if code != 2 || !strings.Contains(errOut, "-population does not combine with "+args[0]) {
			t.Errorf("%v: exit %d, stderr %q; want a usage error naming %s", args, code, errOut, args[0])
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.json")); err == nil {
		t.Error("a refused -trace-out still wrote its file")
	}
}

// TestPopulationWritesProfiles: the process-wide profiles do apply to
// the population study.
func TestPopulationWritesProfiles(t *testing.T) {
	var stream bytes.Buffer
	if err := corpusgen.WriteStream(&stream, 42, corpusgen.Sweep(42, 4)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	out, errOut, code := runCmd(t, &stream, "-population", "-jobs", "1", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 || out == "" {
		t.Fatalf("exit %d, stdout %q, stderr: %s", code, out, errOut)
	}
	nonEmpty(t, cpu)
	nonEmpty(t, mem)
}

// TestRenderingConflicts: -json replaces the text tables, so asking for
// one of them with it is an error; so is a figure with -costs, which
// would render in its place.
func TestRenderingConflicts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-json", "-timing"}, "-json does not combine with -timing"},
		{[]string{"-json", "-fig", "4"}, "-json does not combine with -fig"},
		{[]string{"-costs", "-fig", "2"}, "-costs does not combine with -fig"},
		{[]string{"-backend", "frontier", "-json", "-stats"}, "-backend frontier does not combine with -json, -stats"},
	} {
		_, errOut, code := runCmd(t, nil, tc.args...)
		if code != 2 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want %q", tc.args, code, errOut, tc.want)
		}
	}
}
