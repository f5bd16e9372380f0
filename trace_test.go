package aliaslab_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aliaslab"
	"aliaslab/internal/corpus"
)

// spanCounts counts the spans of a Trace.Text rendering by name.
func spanCounts(text string) map[string]int {
	n := make(map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			n[f[0]]++
		}
	}
	return n
}

// TestVetBuildsOncePerProgram: Vet calls on one Program share one
// diagnostics build and one unbudgeted solve; a budgeted VetLimited
// solves the shared graph again under its own budget.
func TestVetBuildsOncePerProgram(t *testing.T) {
	tr := aliaslab.NewTrace()
	prog, err := aliaslab.ParseProgramTraced("demo.c", demo, aliaslab.Options{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	first, err := prog.Vet()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Vet("uaf"); err != nil {
		t.Fatal(err)
	}
	again, degraded, err := prog.VetLimited(context.Background(), aliaslab.Limits{})
	if err != nil || degraded {
		t.Fatalf("unlimited VetLimited: degraded %v, err %v", degraded, err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("repeated Vet differs:\n%v\n%v", first, again)
	}
	n := spanCounts(tr.Text())
	// One vdg span is the front end's plain build, one the vet build.
	if n["vet"] != 1 || n["vdg"] != 2 || n["solve-ci"] != 1 || n["checkers"] != 3 {
		t.Fatalf("three Vet calls: %d vet, %d vdg, %d solve-ci, %d checkers spans; want 1, 2, 1, 3\n%s",
			n["vet"], n["vdg"], n["solve-ci"], n["checkers"], tr.Text())
	}

	if _, _, err := prog.VetLimited(context.Background(), aliaslab.Limits{MaxSteps: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	n = spanCounts(tr.Text())
	if n["vdg"] != 2 || n["solve-ci"] != 2 {
		t.Fatalf("budgeted VetLimited: %d vdg, %d solve-ci spans; want 2, 2", n["vdg"], n["solve-ci"])
	}
}

// TestVetConcurrent: goroutines sharing one Program share its vet
// build and solve, and each gets the answer a lone call gets.
func TestVetConcurrent(t *testing.T) {
	prog, err := aliaslab.ParseProgram("demo.c", demo, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lone, err := aliaslab.ParseProgram("demo.c", demo, aliaslab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := lone.Vet()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(budgeted bool) {
			defer wg.Done()
			var got []aliaslab.Diagnostic
			var err error
			if budgeted {
				got, _, err = prog.VetLimited(context.Background(), aliaslab.Limits{MaxSteps: 1_000_000})
			} else {
				got, err = prog.Vet()
			}
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent Vet (budgeted %v): %v, err %v; want %v", budgeted, got, err, want)
			}
		}(i%2 == 1)
	}
	wg.Wait()
}

// TestTraceChrome: the Chrome rendering is one JSON object holding every
// recorded phase.
func TestTraceChrome(t *testing.T) {
	tr := aliaslab.NewTrace()
	prog, err := aliaslab.ParseProgramTraced("demo.c", demo, aliaslab.Options{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Analyze(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.Bytes())
	}
	seen := make(map[string]bool)
	for _, e := range doc.TraceEvents {
		seen[e.Name] = true
	}
	for _, want := range []string{"unit", "lex", "parse", "sema", "vdg", "solve", "solve-ci"} {
		if !seen[want] {
			t.Errorf("no %s event in the Chrome trace", want)
		}
	}
}

// TestParseProgramTracedNil: a nil *Trace traces nothing, and the
// Program answers exactly as one from ParseProgram, on every corpus
// program.
func TestParseProgramTracedNil(t *testing.T) {
	for _, p := range corpus.All() {
		name := p.Name + ".c"
		plain, err := aliaslab.ParseProgram(name, p.Source, aliaslab.Options{})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := aliaslab.ParseProgramTraced(name, p.Source, aliaslab.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := plain.Analyze()
		b, _ := traced.Analyze()
		if !reflect.DeepEqual(a.StoreAtExit(), b.StoreAtExit()) {
			t.Errorf("%s: StoreAtExit differs", p.Name)
		}
		if !reflect.DeepEqual(a.IndirectOps(), b.IndirectOps()) {
			t.Errorf("%s: IndirectOps differs", p.Name)
		}
		da, err := plain.Vet()
		if err != nil {
			t.Fatal(err)
		}
		db, err := traced.Vet()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(da, db) {
			t.Errorf("%s: Vet differs", p.Name)
		}
	}
	if text := (*aliaslab.Trace)(nil).Text(); text != "" {
		t.Errorf("a nil trace renders %q", text)
	}
}
