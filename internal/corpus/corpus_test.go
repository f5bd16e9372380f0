package corpus_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aliaslab/internal/core"
	"aliaslab/internal/corpus"
	"aliaslab/internal/vdg"
)

func TestEmbeddedSetMatchesNames(t *testing.T) {
	if err := corpus.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAllProgramsLoad runs every corpus program through the full front
// end and the context-insensitive analysis.
func TestAllProgramsLoad(t *testing.T) {
	for _, name := range corpus.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			u, err := corpus.Load(name, vdg.Options{})
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if u.Graph.Entry == nil {
				t.Fatal("no main function")
			}
			res := core.AnalyzeInsensitive(u.Graph)
			if res.Engine.PairInserts == 0 {
				t.Fatal("analysis found no points-to pairs at all")
			}
		})
	}
}

// TestProgramsAreRealC compiles and runs every corpus program with the
// system C compiler (when present): the corpus is genuine, executable C,
// not merely text our own front end accepts.
func TestProgramsAreRealC(t *testing.T) {
	gcc, err := exec.LookPath("gcc")
	if err != nil {
		t.Skip("no system C compiler")
	}
	dir := t.TempDir()
	for _, p := range corpus.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			src := filepath.Join(dir, p.Name+".c")
			bin := filepath.Join(dir, p.Name)
			if err := os.WriteFile(src, []byte(p.Source), 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := exec.Command(gcc, "-std=c99", "-Wall", "-O1", "-o", bin, src, "-lm").CombinedOutput()
			if err != nil {
				t.Fatalf("gcc failed:\n%s", out)
			}
			if warnings := strings.TrimSpace(string(out)); warnings != "" {
				t.Errorf("gcc warnings:\n%s", warnings)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			runOut, err := exec.CommandContext(ctx, bin).CombinedOutput()
			if err != nil {
				t.Fatalf("program failed (%v):\n%s", err, runOut)
			}
			if len(runOut) == 0 {
				t.Error("program produced no output")
			}
		})
	}
}
