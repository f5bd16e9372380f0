// Package driver wires the front-end pipeline together: lexing, parsing,
// semantic analysis, and VDG construction, with uniform error reporting.
package driver

import (
	"fmt"
	"os"
	"strings"

	"aliaslab/internal/ast"
	"aliaslab/internal/lexer"
	"aliaslab/internal/limits"
	"aliaslab/internal/obs"
	"aliaslab/internal/parser"
	"aliaslab/internal/sema"
	"aliaslab/internal/token"
	"aliaslab/internal/vdg"
)

// Unit is a fully processed translation unit ready for analysis.
type Unit struct {
	Name  string
	File  *ast.File
	Prog  *sema.Program
	Graph *vdg.Graph

	// SourceLines is the number of non-blank source lines (Figure 2's
	// "lines" column).
	SourceLines int
}

// LoadString processes source text through the whole front end.
// It returns an error aggregating all diagnostics when any stage
// fails. Every stage runs behind a panic guard: an internal error in
// the lexer, parser, checker, or VDG builder comes back as a
// structured *limits.PanicError (wrapped with the unit name) instead
// of killing the process — one malformed unit must never take down a
// batch run.
func LoadString(name, src string, opts vdg.Options) (*Unit, error) {
	return LoadStringSpan(name, src, opts, nil)
}

// LoadStringSpan is LoadString with phase tracing: each front-end stage
// (lex, parse, sema, vdg) runs under a child span of parent, with the
// stage's output size attached. A nil parent records nothing and costs
// one nil check per stage — the untraced hot path is unchanged.
func LoadStringSpan(name, src string, opts vdg.Options, parent *obs.Span) (*Unit, error) {
	var toks token.Stream
	var lexErrs []*lexer.Error
	sp := parent.Child("lex")
	if err := limits.Guard("lex "+name, func() error {
		lx := lexer.New(name, src)
		toks = lx.All()
		lexErrs = lx.Errors()
		return nil
	}); err != nil {
		return nil, err
	}
	if sp != nil {
		sp.SetAttr(obs.Int("tokens", len(toks.Toks)))
		sp.End()
	}

	var file *ast.File
	var perrs []*parser.Error
	sp = parent.Child("parse")
	if err := limits.Guard("parse "+name, func() error {
		file, perrs = parser.ParseTokens(name, toks, lexErrs)
		return nil
	}); err != nil {
		return nil, err
	}
	if sp != nil {
		sp.SetAttr(obs.Int("decls", len(file.Decls)))
		sp.End()
	}
	if len(perrs) > 0 {
		return nil, diagError("parse", len(perrs), firstN(perrs, 10))
	}

	var prog *sema.Program
	var serrs []*sema.Error
	sp = parent.Child("sema")
	if err := limits.Guard("typecheck "+name, func() error {
		prog, serrs = sema.Check(file)
		return nil
	}); err != nil {
		return nil, err
	}
	sp.End()
	if len(serrs) > 0 {
		return nil, diagError("typecheck", len(serrs), firstN(serrs, 10))
	}

	graph, err := BuildGraphSpan(name, prog, opts, parent)
	if err != nil {
		return nil, err
	}
	return &Unit{
		Name:        name,
		File:        file,
		Prog:        prog,
		Graph:       graph,
		SourceLines: countLines(src),
	}, nil
}

// BuildGraphSpan is the last front-end stage on its own: it builds the
// VDG of an already checked program under opts, behind the same panic
// guard and error aggregation as LoadStringSpan, in a "vdg" child span
// of parent. The build only reads prog, so one checked program can be
// built again under other options, e.g. with
// vdg.Options.Diagnostics for the checkers.
func BuildGraphSpan(name string, prog *sema.Program, opts vdg.Options, parent *obs.Span) (*vdg.Graph, error) {
	var graph *vdg.Graph
	var berrs []*vdg.BuildError
	sp := parent.Child("vdg")
	if err := limits.Guard("build "+name, func() error {
		graph, berrs = vdg.Build(prog, opts)
		return nil
	}); err != nil {
		return nil, err
	}
	if sp != nil {
		sp.SetAttr(obs.Int("nodes", graph.NodeCount()))
		sp.End()
	}
	if len(berrs) > 0 {
		return nil, diagError("build", len(berrs), firstN(berrs, 10))
	}
	return graph, nil
}

// LoadFileSpan processes a file on disk, with phase tracing under
// parent when it is non-nil (see LoadStringSpan).
func LoadFileSpan(path string, opts vdg.Options, parent *obs.Span) (*Unit, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadStringSpan(path, string(data), opts, parent)
}

// countLines counts non-blank lines, the convention used for the
// Figure 2 size column. It walks the newlines in place rather than
// splitting src into a slice of lines.
func countLines(src string) int {
	n := 0
	for src != "" {
		line := src
		if i := strings.IndexByte(src, '\n'); i >= 0 {
			line, src = src[:i], src[i+1:]
		} else {
			src = ""
		}
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

func firstN[E error](errs []E, n int) []error {
	var out []error
	for i, e := range errs {
		if i == n {
			break
		}
		out = append(out, e)
	}
	return out
}

// stageError is a stage's rejection of a unit: its first diagnostics
// and the total count. Unwrap exposes the diagnostics to errors.Is and
// errors.As, so a caller can tell, e.g., parser.ErrTooDeep apart.
type stageError struct {
	msg  string
	errs []error
}

func (e *stageError) Error() string   { return e.msg }
func (e *stageError) Unwrap() []error { return e.errs }

func diagError(stage string, count int, errs []error) error {
	msgs := make([]string, len(errs))
	for i, e := range errs {
		msgs[i] = e.Error()
	}
	suffix := ""
	if suppressed := count - len(msgs); suppressed > 0 {
		suffix = fmt.Sprintf("\n  ... and %d more", suppressed)
	}
	return &stageError{fmt.Sprintf("%s: %d error(s):\n  %s%s", stage, count, strings.Join(msgs, "\n  "), suffix), errs}
}
