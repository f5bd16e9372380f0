package aliaslab_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestExamplesUseOnlyTheFacade: the examples are the facade's clients,
// so each imports package aliaslab and nothing under aliaslab/internal,
// which a module outside this one could not import.
func TestExamplesUseOnlyTheFacade(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		facade := false
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "aliaslab/internal/") {
				t.Errorf("%s imports %s; examples may use only package aliaslab", file, path)
			}
			facade = facade || path == "aliaslab"
		}
		if !facade {
			t.Errorf("%s does not import package aliaslab", file)
		}
	}
}
