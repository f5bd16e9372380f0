package experiments_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"aliaslab/internal/corpusgen"
	"aliaslab/internal/experiments"
	"aliaslab/internal/limits"
)

// popN is the population size the tests and golden pin run at: small
// enough for the race detector, large enough that every knob bucket has
// support.
const popN = 60

func runPopulation(t *testing.T, jobs int) *experiments.PopulationResult {
	t.Helper()
	res, err := experiments.RunPopulation(corpusgen.Sweep(42, popN), experiments.PopulationOptions{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPopulationClean: the sweep population analyzes without failures —
// every generated unit converges under all four backends.
func TestPopulationClean(t *testing.T) {
	res := runPopulation(t, 0)
	if len(res.Failed) != 0 {
		t.Fatalf("%d units failed: %v", len(res.Failed), res.Failed)
	}
	if res.Total != popN {
		t.Fatalf("total = %d, want %d", res.Total, popN)
	}
	if res.CI.Units == 0 {
		t.Fatal("no units entered the CI distribution")
	}
	// The lattice bounds agreement: CI can only be closer to CS than
	// Andersen, which can only be closer than Steensgaard.
	if res.CI.Mean < res.Andersen.Mean || res.Andersen.Mean < res.Steensgaard.Mean {
		t.Fatalf("agreement means not monotone: ci=%.2f andersen=%.2f steensgaard=%.2f",
			res.CI.Mean, res.Andersen.Mean, res.Steensgaard.Mean)
	}
}

// TestPopulationJobsDeterminism: the text and JSON renderings are
// byte-identical at every worker width.
func TestPopulationJobsDeterminism(t *testing.T) {
	render := func(jobs int) (string, string) {
		res := runPopulation(t, jobs)
		var txt, js bytes.Buffer
		experiments.WritePopulation(&txt, res)
		if err := experiments.WritePopulationJSON(&js, res); err != nil {
			t.Fatal(err)
		}
		return txt.String(), js.String()
	}
	refTxt, refJS := render(1)
	for _, jobs := range []int{2, 7} {
		txt, js := render(jobs)
		if txt != refTxt {
			t.Fatalf("text report differs between -jobs 1 and -jobs %d", jobs)
		}
		if js != refJS {
			t.Fatalf("JSON differs between -jobs 1 and -jobs %d", jobs)
		}
	}
}

// TestPopulationGoldenJSON pins the population JSON exactly. The
// analyses and the generator are deterministic, so any drift is a real
// behavior change; regenerate with UPDATE_GOLDEN=1.
func TestPopulationGoldenJSON(t *testing.T) {
	res := runPopulation(t, 0)
	var buf bytes.Buffer
	if err := experiments.WritePopulationJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	const path = "testdata/population.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden file updated")
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		gl := strings.Split(got, "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("population JSON drifted at line %d:\n got: %q\nwant: %q\n(regenerate with UPDATE_GOLDEN=1 if intentional)", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("population JSON drifted in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// TestPopulationBudgetStop: a tiny per-unit budget stops the units
// that need more instead of hanging, and they surface as failures.
func TestPopulationBudgetStop(t *testing.T) {
	res, _ := experiments.RunPopulation(corpusgen.Sweep(42, 8), experiments.PopulationOptions{
		Jobs:   2,
		Budget: limits.Budget{MaxSteps: 50},
	})
	if len(res.Failed) == 0 {
		t.Fatal("50-step budget failed no units")
	}
}

// TestPopulationFrontEndError: a program the front end rejects occupies
// a failed slot without stopping the run.
func TestPopulationFrontEndError(t *testing.T) {
	progs := corpusgen.Sweep(42, 3)
	progs[1].Source = "int main( {"
	res, err := experiments.RunPopulation(progs, experiments.PopulationOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != progs[1].Name {
		t.Fatalf("failed = %v, want exactly %q", res.Failed, progs[1].Name)
	}
}

func BenchmarkPopulation(b *testing.B) {
	progs := corpusgen.Sweep(42, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunPopulation(progs, experiments.PopulationOptions{Jobs: 0}); err != nil {
			b.Fatal(err)
		}
	}
}
