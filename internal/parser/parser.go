// Package parser implements a recursive-descent parser for the mini-C
// subset, producing the AST in package ast.
//
// The parser is typedef-aware (typedef names must be declared before
// use, as in C) and supports the full declarator grammar needed for
// function pointers, arrays of pointers, and pointers to arrays.
package parser

import (
	"errors"
	"fmt"
	"strconv"

	"aliaslab/internal/ast"
	"aliaslab/internal/lexer"
	"aliaslab/internal/slab"
	"aliaslab/internal/token"
)

// Error is a syntax error with its file and source position.
type Error struct {
	File string
	Pos  token.Pos
	Msg  string

	// Err is the diagnostic's class for errors.Is: ErrTooDeep, or nil.
	Err error
}

func (e *Error) Error() string { return e.Pos.In(e.File) + ": " + e.Msg }

func (e *Error) Unwrap() error { return e.Err }

// MaxDepth bounds how deeply the input may nest: the number of
// expression, statement, declarator, initializer and struct
// productions open at once, plus the links of the chain being parsed
// in each (the operators of a left-deep binary, comma or postfix
// chain, the pointer stars and suffixes of a declarator), since the
// tree such a chain builds is as deep as the chain is long. C requires
// 63 nested parentheses and 127 nested blocks to be accepted; the
// limit is far above any real program, and it keeps a hostile input
// from exhausting the stack of this recursive-descent parser and of
// the recursive walks over its tree (a stack overflow kills the
// process).
const MaxDepth = 10000

// ErrTooDeep classifies the diagnostic for input nested deeper than
// MaxDepth. The parser reports it once and abandons the rest of the
// file.
var ErrTooDeep = errors.New("nesting exceeds the parser's depth limit")

// Parser holds parsing state for one translation unit.
type Parser struct {
	toks []token.Token
	lits []string // the texts of the literal tokens (token.Stream.Lits)
	off  int

	typedefs map[string]bool
	errs     []*Error
	fileName string

	// pending holds extra declarations produced by multi-declarator
	// file-scope lines ("int a, b;"); ParseFile drains it after each
	// top-level declaration.
	pending []ast.Decl

	// enumConsts tracks enum constant values seen so far, so that array
	// lengths may reference them (C requires parse-time constants).
	enumConsts map[string]int64

	// exprs is the last expression number assigned (see ast.Expr).
	exprs int

	// idents holds the chunks identifier nodes are cut from, and nodes
	// those of the other common node types.
	idents slab.Slab[ast.Ident]
	nodes  nodes

	// stmts and args are stacks the statements of the open blocks and
	// the arguments of the open calls collect on; each list is copied
	// to an exact carve from stmtLists or exprLists when it closes.
	stmts     []ast.Stmt
	args      []ast.Expr
	stmtLists slab.Slab[ast.Stmt]
	exprLists slab.Slab[ast.Expr]

	// depth counts the productions open now (see MaxDepth); tooDeep is
	// set once the limit is hit, and silences the unwinding.
	depth   int
	tooDeep bool
}

// ParseFile lexes and parses src, returning the file and any errors.
// A non-nil file is returned even in the presence of errors so that
// callers can report as much as possible.
func ParseFile(name, src string) (*ast.File, []*Error) {
	lx := lexer.New(name, src)
	return ParseTokens(name, lx.All(), lx.Errors())
}

// ParseTokens parses an already-lexed token stream. It is ParseFile
// minus the lexing pass, split out so callers that meter the pipeline
// (the traced driver) can attribute lexing and parsing separately;
// lexErrs carries the lexer's diagnostics into the parser's error list.
func ParseTokens(name string, toks token.Stream, lexErrs []*lexer.Error) (*ast.File, []*Error) {
	p := &Parser{toks: toks.Toks, lits: toks.Lits, typedefs: make(map[string]bool), enumConsts: make(map[string]int64), fileName: name}
	p.nodes.size(len(toks.Toks))
	for _, le := range lexErrs {
		p.errs = append(p.errs, &Error{File: name, Pos: le.Pos, Msg: le.Msg})
	}
	file := &ast.File{Name: name}
	for !p.at(token.EOF) {
		start := p.off
		nerrs := len(p.errs)
		d := p.parseTopDecl()
		if d != nil {
			file.Decls = append(file.Decls, d)
		}
		if len(p.pending) > 0 {
			file.Decls = append(file.Decls, p.pending...)
			p.pending = p.pending[:0]
		}
		if len(p.errs) > nerrs && !p.atTopDeclStart() {
			// The declaration went wrong and we are sitting in the
			// wreckage. Skip to the next plausible declaration boundary
			// so each top-level mistake yields one diagnostic instead of
			// a cascade.
			p.synchronizeTop()
		}
		if p.off == start {
			// Ensure progress even on malformed input.
			p.advance()
		}
	}
	file.Exprs = p.exprs + 1
	return file, p.errs
}

// atTopDeclStart reports whether the current token can begin a
// file-scope declaration.
func (p *Parser) atTopDeclStart() bool {
	switch p.cur().Kind {
	case token.STATIC, token.EXTERN, token.TYPEDEF, token.EOF:
		return true
	}
	return p.isTypeName(p.cur())
}

// synchronizeTop discards tokens until just past the next ';' or '}',
// or until a token that can begin a file-scope declaration. Used after
// a top-level parse error to resume at the next declaration.
func (p *Parser) synchronizeTop() {
	for !p.at(token.EOF) {
		switch p.cur().Kind {
		case token.SEMI, token.RBRACE:
			p.advance()
			return
		}
		if p.atTopDeclStart() {
			return
		}
		p.advance()
	}
}

// synchronizeStmt discards tokens until just past the next ';', or up
// to (not past) a '}' so the enclosing block still sees its closer.
// Used after a statement-level parse error.
func (p *Parser) synchronizeStmt() {
	for !p.at(token.EOF) && !p.at(token.RBRACE) {
		if p.at(token.SEMI) {
			p.advance()
			return
		}
		p.advance()
	}
}

// ---------------------------------------------------------------------------
// Token plumbing

func (p *Parser) cur() token.Token     { return p.toks[p.off] }
func (p *Parser) at(k token.Kind) bool { return p.toks[p.off].Kind == k }

// lit returns the text of a literal token, "" for any other.
func (p *Parser) lit(t token.Token) string { return p.lits[t.Lit] }

// show renders a token for diagnostics.
func (p *Parser) show(t token.Token) string {
	s := token.Stream{Lits: p.lits}
	return s.Format(t)
}

func (p *Parser) peek(n int) token.Token {
	if p.off+n >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[p.off+n]
}

func (p *Parser) advance() token.Token {
	t := p.toks[p.off]
	if p.off < len(p.toks)-1 {
		p.off++
	}
	return t
}

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.advance()
	}
	p.errorf("expected %s, found %s", k, p.show(p.cur()))
	return token.Token{Kind: k, Pos: p.cur().Pos}
}

func (p *Parser) errorf(format string, args ...any) {
	if p.tooDeep {
		return // the file is abandoned; the depth error stands alone
	}
	p.errs = append(p.errs, &Error{File: p.fileName, Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)})
}

// enter opens a nested production and reports whether the caller may
// parse it; leave closes it. Past MaxDepth, enter reports ErrTooDeep,
// skips to EOF so every open production unwinds at once, and returns
// false: the caller then returns a placeholder without consuming input.
func (p *Parser) enter() bool {
	if p.depth < MaxDepth {
		p.depth++
		return true
	}
	if !p.tooDeep {
		p.errs = append(p.errs, &Error{File: p.fileName, Pos: p.cur().Pos,
			Msg: fmt.Sprintf("input nests too deeply (parser depth limit %d)", MaxDepth), Err: ErrTooDeep})
		p.tooDeep = true
		p.off = len(p.toks) - 1
	}
	return false
}

func (p *Parser) leave() { p.depth-- }

// isTypeName reports whether the current token begins a type: a builtin
// type keyword, struct/union/enum, a qualifier, or a known typedef name.
func (p *Parser) isTypeName(t token.Token) bool {
	if t.Kind.IsTypeStart() {
		return true
	}
	return t.Kind == token.IDENT && p.typedefs[p.lit(t)]
}

// ---------------------------------------------------------------------------
// Declarations

// parseTopDecl parses one file-scope declaration.
func (p *Parser) parseTopDecl() ast.Decl {
	pos := p.cur().Pos
	switch {
	case p.accept(token.TYPEDEF):
		base := p.parseTypeSpecifier()
		if base == nil {
			p.errorf("expected type after typedef, found %s", p.show(p.cur()))
			return nil
		}
		name, typ := p.parseDeclarator(base)
		p.expect(token.SEMI)
		if name == "" {
			p.errorf("typedef requires a name")
			return nil
		}
		p.typedefs[name] = true
		return &ast.TypedefDecl{Name: name, Type: typ, TokPos: pos}
	case p.at(token.SEMI):
		p.advance()
		return nil
	}

	static := p.accept(token.STATIC)
	extern := p.accept(token.EXTERN)
	if !static {
		static = p.accept(token.STATIC)
	}

	base := p.parseTypeSpecifier()
	if base == nil {
		p.errorf("expected declaration, found %s", p.show(p.cur()))
		return nil
	}

	// "struct foo { ... };" — a bare tag declaration.
	if p.at(token.SEMI) {
		p.advance()
		return &ast.TagDecl{Type: base, TokPos: pos}
	}

	name, typ := p.parseDeclarator(base)
	if ft, ok := typ.(*ast.FuncType); ok && (p.at(token.LBRACE) || p.at(token.SEMI)) {
		fd := newNode(&p.nodes.funcDecl, ast.FuncDecl{Name: name, Type: ft, Static: static, TokPos: pos})
		if p.at(token.LBRACE) {
			fd.Body = p.parseBlock()
		} else {
			p.expect(token.SEMI)
		}
		return fd
	}

	// Variable declaration(s); only the first declarator is returned and
	// the rest are queued as additional decls via a small trick: we parse
	// them eagerly into a synthetic holder. To keep the Decl interface
	// simple, multi-declarator lines are split by the caller loop: we
	// rewind is not possible, so we return a VarDecl and stash extras.
	vd := p.finishVarDecl(name, typ, static, extern, pos)
	decls := []ast.Decl{vd}
	for p.accept(token.COMMA) {
		n2, t2 := p.parseDeclarator(base)
		decls = append(decls, p.finishVarDecl(n2, t2, static, extern, p.cur().Pos))
	}
	p.expect(token.SEMI)
	if len(decls) == 1 {
		return decls[0]
	}
	// Splice the extra declarations through the pending queue.
	p.pending = append(p.pending, decls[1:]...)
	return decls[0]
}

func (p *Parser) finishVarDecl(name string, typ ast.TypeExpr, static, extern bool, pos token.Pos) *ast.VarDecl {
	vd := newNode(&p.nodes.varDecl, ast.VarDecl{Name: name, Type: typ, Static: static, Extern: extern, TokPos: pos})
	if p.accept(token.ASSIGN) {
		if p.at(token.LBRACE) {
			vd.InitList = p.parseInitList()
		} else {
			vd.Init = p.parseAssignExpr()
		}
	}
	return vd
}

// parseInitList parses a brace initializer, flattening nested braces.
func (p *Parser) parseInitList() []ast.Expr {
	if !p.enter() {
		return nil
	}
	defer p.leave()
	p.expect(token.LBRACE)
	var elems []ast.Expr
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		if p.at(token.LBRACE) {
			elems = append(elems, p.parseInitList()...)
		} else {
			elems = append(elems, p.parseAssignExpr())
		}
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RBRACE)
	return elems
}

// parseTypeSpecifier parses the leading type of a declaration:
// builtin scalars (with signedness/length adjectives), struct/union/enum
// definitions or references, and typedef names.
func (p *Parser) parseTypeSpecifier() ast.TypeExpr {
	pos := p.cur().Pos
	// Qualifiers are accepted and ignored.
	for p.accept(token.CONST) {
	}
	switch {
	case p.at(token.STRUCT), p.at(token.UNION):
		return p.parseStructType()
	case p.at(token.ENUM):
		return p.parseEnumType()
	case p.at(token.IDENT) && p.typedefs[p.lit(p.cur())]:
		t := p.advance()
		return &ast.NamedType{Name: p.lit(t), TokPos: t.Pos}
	}

	// Builtin scalar with adjectives: [signed|unsigned] [short|long] base.
	sawSign := false
	sawLen := ""
	for {
		switch p.cur().Kind {
		case token.UNSIGNED, token.SIGNED:
			p.advance()
			sawSign = true
			continue
		case token.LONG_KW:
			p.advance()
			sawLen = "long"
			// "long long" collapses to long.
			p.accept(token.LONG_KW)
			continue
		case token.SHORT_KW:
			p.advance()
			sawLen = "short"
			continue
		}
		break
	}
	name := ""
	switch p.cur().Kind {
	case token.VOID:
		p.advance()
		name = "void"
	case token.CHAR_KW:
		p.advance()
		name = "char"
	case token.INT_KW:
		p.advance()
		name = "int"
	case token.FLOAT_KW:
		p.advance()
		name = "float"
	case token.DOUBLE_KW:
		p.advance()
		name = "double"
	default:
		if sawLen != "" {
			name = sawLen // "long x;" / "short x;"
			if name == "short" {
				name = "int"
			}
		} else if sawSign {
			name = "int" // "unsigned x;"
		} else {
			return nil
		}
	}
	if sawLen == "long" && name == "int" {
		name = "long"
	}
	if sawLen == "short" && name == "int" {
		name = "int"
	}
	for p.accept(token.CONST) {
	}
	return newNode(&p.nodes.baseType, ast.BaseType{Name: name, TokPos: pos})
}

func (p *Parser) parseStructType() ast.TypeExpr {
	pos := p.cur().Pos
	if !p.enter() {
		return newNode(&p.nodes.structType, ast.StructType{TokPos: pos})
	}
	defer p.leave()
	union := p.cur().Kind == token.UNION
	p.advance()
	tag := ""
	if p.at(token.IDENT) {
		tag = p.lit(p.advance())
	}
	st := newNode(&p.nodes.structType, ast.StructType{Union: union, Tag: tag, TokPos: pos})
	if p.accept(token.LBRACE) {
		for !p.at(token.RBRACE) && !p.at(token.EOF) {
			base := p.parseTypeSpecifier()
			if base == nil {
				// One diagnostic for the whole run of tokens that cannot
				// start a field: skip to the end of the field, the end of
				// the body, or the next type.
				p.errorf("expected field type, found %s", p.show(p.cur()))
				p.advance()
				for !p.at(token.RBRACE) && !p.at(token.EOF) && !p.isTypeName(p.cur()) {
					if p.advance().Kind == token.SEMI {
						break
					}
				}
				continue
			}
			for {
				fpos := p.cur().Pos
				name, typ := p.parseDeclarator(base)
				st.Fields = append(st.Fields, newNode(&p.nodes.fieldDecl, ast.FieldDecl{Name: name, Type: typ, TokPos: fpos}))
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.expect(token.SEMI)
		}
		p.expect(token.RBRACE)
		if st.Fields == nil {
			st.Fields = []*ast.FieldDecl{} // non-nil marks "defined"
		}
	}
	return st
}

func (p *Parser) parseEnumType() ast.TypeExpr {
	pos := p.expect(token.ENUM).Pos
	tag := ""
	if p.at(token.IDENT) {
		tag = p.lit(p.advance())
	}
	et := &ast.EnumType{Tag: tag, TokPos: pos}
	if p.accept(token.LBRACE) {
		et.Defined = true
		next := int64(0)
		for !p.at(token.RBRACE) && !p.at(token.EOF) {
			mpos := p.cur().Pos
			name := p.lit(p.expect(token.IDENT))
			var val ast.Expr
			if p.accept(token.ASSIGN) {
				val = p.parseAssignExpr()
				if v, ok := p.constEval(val); ok {
					next = v
				}
			}
			p.enumConsts[name] = next
			next++
			et.Members = append(et.Members, ast.EnumMember{Name: name, Value: val, TokPos: mpos})
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RBRACE)
	}
	return et
}

// ---------------------------------------------------------------------------
// Declarators
//
// A declarator wraps the base type from the outside in; we parse the
// declarator structure and then apply the accumulated wrappers.

// declWrap is a pending type construction applied around the base type.
type declWrap struct {
	kind     byte // '*', '[', '('
	length   int  // for arrays; -1 when unsized
	params   []*ast.ParamDecl
	variadic bool
	pos      token.Pos
}

// parseDeclarator parses one declarator against base and returns the
// declared name (possibly empty for abstract declarators) and type.
func (p *Parser) parseDeclarator(base ast.TypeExpr) (string, ast.TypeExpr) {
	name, wraps := p.parseDeclaratorInner()
	p.depth -= len(wraps) // each wrap held one level (see parseDeclaratorInner)
	typ := base
	// wraps are recorded innermost-last; apply from the end.
	for i := len(wraps) - 1; i >= 0; i-- {
		w := wraps[i]
		switch w.kind {
		case '*':
			typ = newNode(&p.nodes.pointerType, ast.PointerType{Elem: typ, TokPos: w.pos})
		case '[':
			typ = &ast.ArrayType{Elem: typ, Len: w.length, TokPos: w.pos}
		case '(':
			typ = newNode(&p.nodes.funcType, ast.FuncType{Params: w.params, Variadic: w.variadic, Result: typ, TokPos: w.pos})
		}
	}
	return name, typ
}

// parseDeclaratorInner returns the declared name and the wrapper list in
// application order (outermost first).
//
// Grammar:
//
//	declarator  = {"*"} direct .
//	direct      = IDENT | "(" declarator ")" | direct suffix .
//	suffix      = "[" [const] "]" | "(" params ")" .
//
// Pointers bind more loosely than suffixes, so "*f[3]" is an array of
// pointers and "(*f)[3]" is a pointer to an array.
//
// Each wrap nests the declared type one level deeper, so each holds
// one level of MaxDepth from its token until parseDeclarator releases
// them all; a wrap is returned only if its level was granted.
func (p *Parser) parseDeclaratorInner() (string, []declWrap) {
	if !p.enter() {
		return "", nil
	}
	defer p.leave()
	var stars []declWrap
	for p.at(token.MUL) && p.enter() {
		pos := p.advance().Pos
		for p.accept(token.CONST) {
		}
		stars = append(stars, declWrap{kind: '*', pos: pos})
	}

	var name string
	var inner []declWrap
	switch {
	case p.at(token.IDENT):
		name = p.lit(p.advance())
	case p.at(token.LPAREN) && p.startsNestedDeclarator():
		p.advance()
		name, inner = p.parseDeclaratorInner()
		p.expect(token.RPAREN)
	}

	var suffixes []declWrap
	for (p.at(token.LBRACK) || p.at(token.LPAREN)) && p.enter() {
		t := p.advance()
		if t.Kind == token.LBRACK {
			length := -1
			if !p.at(token.RBRACK) {
				e := p.parseAssignExpr()
				length = p.constIntValue(e)
			}
			p.expect(token.RBRACK)
			suffixes = append(suffixes, declWrap{kind: '[', length: length, pos: t.Pos})
		} else {
			params, variadic := p.parseParamList()
			p.expect(token.RPAREN)
			suffixes = append(suffixes, declWrap{kind: '(', params: params, variadic: variadic, pos: t.Pos})
		}
	}

	// The slice is kept in C's "reading order" (the spiral rule): the
	// nested declarator's wraps first, then this level's suffixes, then
	// its pointer stars. The caller applies wraps from the END of the
	// slice inward, so stars wrap the base type first ("int *f()" is a
	// function returning int*), then suffixes, then the enclosing
	// declarator level ("(*f)(int)" is a pointer to function).
	if len(inner) == 0 && len(suffixes) == 0 {
		return name, stars
	}
	wraps := make([]declWrap, 0, len(stars)+len(inner)+len(suffixes))
	wraps = append(wraps, inner...)
	wraps = append(wraps, suffixes...)
	wraps = append(wraps, stars...)
	return name, wraps
}

// startsNestedDeclarator disambiguates "(*f)(...)" from a parameter list
// "(int x)" after a missing name: a nested declarator starts with * or (
// or an identifier that is not a type name.
func (p *Parser) startsNestedDeclarator() bool {
	n := p.peek(1)
	switch n.Kind {
	case token.MUL, token.LPAREN:
		return true
	case token.IDENT:
		return !p.typedefs[p.lit(n)]
	}
	return false
}

// parseParamList parses a function parameter list (without parens).
func (p *Parser) parseParamList() ([]*ast.ParamDecl, bool) {
	var params []*ast.ParamDecl
	variadic := false
	if p.at(token.RPAREN) {
		return params, false
	}
	// "(void)" means no parameters.
	if p.at(token.VOID) && p.peek(1).Kind == token.RPAREN {
		p.advance()
		return params, false
	}
	for {
		if p.at(token.ELLIPSIS) {
			p.advance()
			variadic = true
			break
		}
		pos := p.cur().Pos
		base := p.parseTypeSpecifier()
		if base == nil {
			p.errorf("expected parameter type, found %s", p.show(p.cur()))
			break
		}
		name, typ := p.parseDeclarator(base)
		// Array parameters decay to pointers.
		if at, ok := typ.(*ast.ArrayType); ok {
			typ = newNode(&p.nodes.pointerType, ast.PointerType{Elem: at.Elem, TokPos: at.TokPos})
		}
		params = append(params, newNode(&p.nodes.paramDecl, ast.ParamDecl{Name: name, Type: typ, TokPos: pos}))
		if !p.accept(token.COMMA) {
			break
		}
	}
	return params, variadic
}

// constIntValue evaluates small constant expressions used in array sizes
// and enum values. Unsupported forms yield -1 with an error.
func (p *Parser) constIntValue(e ast.Expr) int {
	v, ok := p.constEval(e)
	if !ok {
		p.errorf("array length must be a constant expression")
		return -1
	}
	return int(v)
}

func (p *Parser) constEval(e ast.Expr) (int64, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, true
	case *ast.CharLit:
		return int64(e.Value), true
	case *ast.Ident:
		if v, ok := p.enumConsts[e.Name]; ok {
			return v, true
		}
		return 0, false
	case *ast.Unary:
		v, ok := p.constEval(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case token.SUB:
			return -v, true
		case token.NOT:
			return ^v, true
		case token.ADD:
			return v, true
		}
	case *ast.Binary:
		a, ok1 := p.constEval(e.X)
		b, ok2 := p.constEval(e.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch e.Op {
		case token.ADD:
			return a + b, true
		case token.SUB:
			return a - b, true
		case token.MUL:
			return a * b, true
		case token.QUO:
			if b != 0 {
				return a / b, true
			}
		case token.REM:
			if b != 0 {
				return a % b, true
			}
		case token.SHL:
			return a << uint(b), true
		case token.SHR:
			return a >> uint(b), true
		case token.OR:
			return a | b, true
		case token.AND:
			return a & b, true
		case token.XOR:
			return a ^ b, true
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Statements

func (p *Parser) parseBlock() *ast.Block {
	pos := p.expect(token.LBRACE).Pos
	b := newNode(&p.nodes.block, ast.Block{TokPos: pos})
	mark := len(p.stmts)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		start := p.off
		nerrs := len(p.errs)
		p.stmts = p.appendStmts(p.stmts)
		if len(p.errs) > nerrs {
			// Recover at the next statement boundary so one bad
			// statement produces one diagnostic, not one per token.
			p.synchronizeStmt()
		}
		if p.off == start {
			p.advance()
		}
	}
	b.Stmts = closeList(&p.stmts, &p.stmtLists, mark)
	p.expect(token.RBRACE)
	return b
}

// closeList pops the elements collected on stack since mark into an
// exact list carved from lists (nil when there are none).
func closeList[T any](stack *[]T, lists *slab.Slab[T], mark int) []T {
	n := len(*stack) - mark
	if n == 0 {
		return nil
	}
	list := append(lists.Carve(n), (*stack)[mark:]...)
	clear((*stack)[mark:])
	*stack = (*stack)[:mark]
	return list
}

// appendStmts parses one statement and appends it to dst; declarations
// with several declarators expand to several DeclStmts.
func (p *Parser) appendStmts(dst []ast.Stmt) []ast.Stmt {
	if p.at(token.STATIC) || (p.isTypeName(p.cur()) && !p.startsExprDespiteTypeName()) {
		return p.appendLocalDecl(dst)
	}
	return append(dst, p.parseStmt())
}

// startsExprDespiteTypeName handles the rare case of an expression
// statement beginning with a typedef name used as a variable (shadowing);
// the subset forbids shadowing typedef names, so this is always false,
// but the hook keeps the decision point explicit.
func (p *Parser) startsExprDespiteTypeName() bool { return false }

// appendLocalDecl parses a local declaration and appends a DeclStmt
// per declarator to out.
func (p *Parser) appendLocalDecl(out []ast.Stmt) []ast.Stmt {
	pos := p.cur().Pos
	static := p.accept(token.STATIC)
	base := p.parseTypeSpecifier()
	if base == nil {
		p.errorf("expected type in declaration, found %s", p.show(p.cur()))
		return out
	}
	for {
		name, typ := p.parseDeclarator(base)
		vd := p.finishVarDecl(name, typ, static, false, pos)
		out = append(out, newNode(&p.nodes.declStmt, ast.DeclStmt{Decl: vd, TokPos: pos}))
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.SEMI)
	return out
}

func (p *Parser) parseStmt() ast.Stmt {
	pos := p.cur().Pos
	if !p.enter() {
		return &ast.Empty{TokPos: pos}
	}
	defer p.leave()
	switch p.cur().Kind {
	case token.LBRACE:
		return p.parseBlock()
	case token.SEMI:
		p.advance()
		return &ast.Empty{TokPos: pos}
	case token.IF:
		p.advance()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		then := p.parseStmt()
		var els ast.Stmt
		if p.accept(token.ELSE) {
			els = p.parseStmt()
		}
		return newNode(&p.nodes.ifStmt, ast.If{Cond: cond, Then: then, Else: els, TokPos: pos})
	case token.WHILE:
		p.advance()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		body := p.parseStmt()
		return &ast.While{Cond: cond, Body: body, TokPos: pos}
	case token.DO:
		p.advance()
		body := p.parseStmt()
		p.expect(token.WHILE)
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		p.expect(token.SEMI)
		return &ast.While{Cond: cond, Body: body, DoWhile: true, TokPos: pos}
	case token.FOR:
		p.advance()
		p.expect(token.LPAREN)
		var init ast.Stmt
		if !p.at(token.SEMI) {
			if p.isTypeName(p.cur()) {
				decls := p.appendLocalDecl(nil) // consumes the ';'
				if len(decls) == 1 {
					init = decls[0]
				} else {
					init = &ast.Block{Stmts: decls, TokPos: pos}
				}
			} else {
				e := p.parseExpr()
				init = newNode(&p.nodes.exprStmt, ast.ExprStmt{X: e, TokPos: e.Pos()})
				p.expect(token.SEMI)
			}
		} else {
			p.expect(token.SEMI)
		}
		var cond ast.Expr
		if !p.at(token.SEMI) {
			cond = p.parseExpr()
		}
		p.expect(token.SEMI)
		var post ast.Expr
		if !p.at(token.RPAREN) {
			post = p.parseExpr()
		}
		p.expect(token.RPAREN)
		body := p.parseStmt()
		return newNode(&p.nodes.forStmt, ast.For{Init: init, Cond: cond, Post: post, Body: body, TokPos: pos})
	case token.RETURN:
		p.advance()
		var val ast.Expr
		if !p.at(token.SEMI) {
			val = p.parseExpr()
		}
		p.expect(token.SEMI)
		return newNode(&p.nodes.returnStmt, ast.Return{Value: val, TokPos: pos})
	case token.BREAK:
		p.advance()
		p.expect(token.SEMI)
		return &ast.Break{TokPos: pos}
	case token.CONTINUE:
		p.advance()
		p.expect(token.SEMI)
		return &ast.Continue{TokPos: pos}
	case token.SWITCH:
		return p.parseSwitch()
	case token.GOTO:
		p.errorf("goto is not supported by the subset")
		p.advance()
		if p.at(token.IDENT) {
			p.advance()
		}
		p.expect(token.SEMI)
		return &ast.Empty{TokPos: pos}
	}
	e := p.parseExpr()
	p.expect(token.SEMI)
	return newNode(&p.nodes.exprStmt, ast.ExprStmt{X: e, TokPos: pos})
}

func (p *Parser) parseSwitch() ast.Stmt {
	pos := p.expect(token.SWITCH).Pos
	p.expect(token.LPAREN)
	tag := p.parseExpr()
	p.expect(token.RPAREN)
	p.expect(token.LBRACE)
	sw := &ast.Switch{Tag: tag, TokPos: pos}
	var cur *ast.Case
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		switch p.cur().Kind {
		case token.CASE:
			cpos := p.advance().Pos
			v := p.parseAssignExpr()
			p.expect(token.COLON)
			if cur != nil && len(cur.Body) == 0 {
				// "case 1: case 2:" — merge labels.
				cur.Values = append(cur.Values, v)
			} else {
				cur = &ast.Case{Values: []ast.Expr{v}, TokPos: cpos}
				sw.Cases = append(sw.Cases, cur)
			}
		case token.DEFAULT:
			cpos := p.advance().Pos
			p.expect(token.COLON)
			cur = &ast.Case{TokPos: cpos}
			sw.Cases = append(sw.Cases, cur)
		default:
			if cur == nil {
				p.errorf("statement before first case label")
				cur = &ast.Case{TokPos: p.cur().Pos}
				sw.Cases = append(sw.Cases, cur)
			}
			cur.Body = p.appendStmts(cur.Body)
		}
	}
	p.expect(token.RBRACE)
	return sw
}

// ---------------------------------------------------------------------------
// Expressions

// num assigns the next expression number (see ast.Expr).
func (p *Parser) num() int {
	p.exprs++
	return p.exprs
}

// ident builds the identifier use t. Identifiers are a fifth of the
// nodes of a parse, so they are cut from shared chunks.
func (p *Parser) ident(t token.Token) *ast.Ident {
	id := p.idents.Alloc()
	*id = ast.Ident{Name: p.lit(t), TokPos: t.Pos, ID: p.num()}
	return id
}

// placeholder stands in for an expression the parser gave up on.
func (p *Parser) placeholder() ast.Expr {
	return newNode(&p.nodes.intLit, ast.IntLit{TokPos: p.cur().Pos, ID: p.num()})
}

// parseExpr parses a full expression including the comma operator.
// Like every left-deep chain below, each operator holds one level of
// MaxDepth until the chain ends, since the tree nests one level per
// operator.
func (p *Parser) parseExpr() ast.Expr {
	e := p.parseAssignExpr()
	held := 0
	for p.at(token.COMMA) && p.enter() {
		held++
		pos := p.advance().Pos
		y := p.parseAssignExpr()
		e = &ast.Comma{X: e, Y: y, TokPos: pos, ID: p.num()}
	}
	p.depth -= held
	return e
}

// parseAssignExpr parses an assignment-expression (no top-level comma).
func (p *Parser) parseAssignExpr() ast.Expr {
	if !p.enter() {
		return p.placeholder()
	}
	defer p.leave()
	lhs := p.parseCondExpr()
	if p.cur().Kind.IsAssign() {
		op := p.advance()
		rhs := p.parseAssignExpr()
		return newNode(&p.nodes.assign, ast.Assign{Op: op.Kind, LHS: lhs, RHS: rhs, TokPos: op.Pos, ID: p.num()})
	}
	return lhs
}

func (p *Parser) parseCondExpr() ast.Expr {
	cond := p.parseBinaryExpr(1)
	if p.at(token.QUESTION) {
		pos := p.advance().Pos
		then := p.parseExpr()
		p.expect(token.COLON)
		els := p.parseAssignExpr()
		return &ast.Cond{Cond: cond, Then: then, Else: els, TokPos: pos, ID: p.num()}
	}
	return cond
}

// binaryPrec returns the precedence of a binary operator, or 0.
func binaryPrec(k token.Kind) int {
	switch k {
	case token.LOR:
		return 1
	case token.LAND:
		return 2
	case token.OR:
		return 3
	case token.XOR:
		return 4
	case token.AND:
		return 5
	case token.EQL, token.NEQ:
		return 6
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
		return 7
	case token.SHL, token.SHR:
		return 8
	case token.ADD, token.SUB:
		return 9
	case token.MUL, token.QUO, token.REM:
		return 10
	}
	return 0
}

func (p *Parser) parseBinaryExpr(minPrec int) ast.Expr {
	x := p.parseUnaryExpr()
	held := 0
	for {
		prec := binaryPrec(p.cur().Kind)
		if prec < minPrec || prec == 0 || !p.enter() {
			p.depth -= held
			return x
		}
		held++
		op := p.advance()
		y := p.parseBinaryExpr(prec + 1)
		x = newNode(&p.nodes.binary, ast.Binary{Op: op.Kind, X: x, Y: y, TokPos: op.Pos, ID: p.num()})
	}
}

func (p *Parser) parseUnaryExpr() ast.Expr {
	pos := p.cur().Pos
	if !p.enter() {
		return p.placeholder()
	}
	defer p.leave()
	switch p.cur().Kind {
	case token.ADD:
		p.advance()
		return p.parseUnaryExpr() // unary + is a no-op
	case token.SUB, token.LNOT, token.NOT, token.MUL, token.AND, token.INC, token.DEC:
		op := p.advance()
		x := p.parseUnaryExpr()
		return newNode(&p.nodes.unary, ast.Unary{Op: op.Kind, X: x, TokPos: op.Pos, ID: p.num()})
	case token.SIZEOF:
		p.advance()
		if p.at(token.LPAREN) && p.isTypeName(p.peek(1)) {
			p.advance()
			t := p.parseAbstractType()
			p.expect(token.RPAREN)
			return &ast.SizeofExpr{Type: t, TokPos: pos, ID: p.num()}
		}
		x := p.parseUnaryExpr()
		return &ast.SizeofExpr{X: x, TokPos: pos, ID: p.num()}
	case token.LPAREN:
		if p.isTypeName(p.peek(1)) {
			// Cast expression.
			p.advance()
			t := p.parseAbstractType()
			p.expect(token.RPAREN)
			x := p.parseUnaryExpr()
			return &ast.Cast{Type: t, X: x, TokPos: pos, ID: p.num()}
		}
	}
	return p.parsePostfixExpr()
}

// parseAbstractType parses a type name (specifier + abstract declarator),
// as used in casts and sizeof.
func (p *Parser) parseAbstractType() ast.TypeExpr {
	base := p.parseTypeSpecifier()
	if base == nil {
		p.errorf("expected type, found %s", p.show(p.cur()))
		return newNode(&p.nodes.baseType, ast.BaseType{Name: "int", TokPos: p.cur().Pos})
	}
	name, typ := p.parseDeclarator(base)
	if name != "" {
		p.errorf("unexpected name %q in type", name)
	}
	return typ
}

func (p *Parser) parsePostfixExpr() ast.Expr {
	x := p.parsePrimaryExpr()
	held := 0
	for isPostfixOp(p.cur().Kind) && p.enter() {
		held++
		pos := p.cur().Pos
		switch p.cur().Kind {
		case token.LPAREN:
			p.advance()
			mark := len(p.args)
			for !p.at(token.RPAREN) && !p.at(token.EOF) {
				p.args = append(p.args, p.parseAssignExpr())
				if !p.accept(token.COMMA) {
					break
				}
			}
			args := closeList(&p.args, &p.exprLists, mark)
			p.expect(token.RPAREN)
			x = newNode(&p.nodes.call, ast.Call{Fun: x, Args: args, TokPos: pos, ID: p.num()})
		case token.LBRACK:
			p.advance()
			idx := p.parseExpr()
			p.expect(token.RBRACK)
			x = newNode(&p.nodes.index, ast.Index{X: x, Idx: idx, TokPos: pos, ID: p.num()})
		case token.PERIOD:
			p.advance()
			name := p.lit(p.expect(token.IDENT))
			x = newNode(&p.nodes.member, ast.Member{X: x, Name: name, TokPos: pos, ID: p.num()})
		case token.ARROW:
			p.advance()
			name := p.lit(p.expect(token.IDENT))
			x = newNode(&p.nodes.member, ast.Member{X: x, Name: name, Arrow: true, TokPos: pos, ID: p.num()})
		case token.INC, token.DEC:
			op := p.advance()
			x = newNode(&p.nodes.postfix, ast.Postfix{Op: op.Kind, X: x, TokPos: op.Pos, ID: p.num()})
		}
	}
	p.depth -= held
	return x
}

// isPostfixOp reports whether k starts a postfix operator: a call,
// subscript, member access, or postfix increment or decrement.
func isPostfixOp(k token.Kind) bool {
	switch k {
	case token.LPAREN, token.LBRACK, token.PERIOD, token.ARROW, token.INC, token.DEC:
		return true
	}
	return false
}

func (p *Parser) parsePrimaryExpr() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.IDENT:
		p.advance()
		return p.ident(t)
	case token.INT:
		p.advance()
		v, err := strconv.ParseInt(p.lit(t), 0, 64)
		if err != nil {
			// Out-of-range literals saturate; the analysis never needs values.
			v = 0
		}
		return newNode(&p.nodes.intLit, ast.IntLit{Value: v, TokPos: t.Pos, ID: p.num()})
	case token.FLOAT:
		p.advance()
		v, _ := strconv.ParseFloat(p.lit(t), 64)
		return &ast.FloatLit{Value: v, TokPos: t.Pos, ID: p.num()}
	case token.CHAR:
		p.advance()
		var b byte
		if lit := p.lit(t); len(lit) > 0 {
			b = lit[0]
		}
		return newNode(&p.nodes.charLit, ast.CharLit{Value: b, TokPos: t.Pos, ID: p.num()})
	case token.STRING:
		p.advance()
		// Adjacent string literals concatenate.
		lit := p.lit(t)
		for p.at(token.STRING) {
			lit += p.lit(p.advance())
		}
		return newNode(&p.nodes.stringLit, ast.StringLit{Value: lit, TokPos: t.Pos, ID: p.num()})
	case token.LPAREN:
		p.advance()
		e := p.parseExpr()
		p.expect(token.RPAREN)
		return e
	}
	p.errorf("expected expression, found %s", p.show(t))
	p.advance()
	return newNode(&p.nodes.intLit, ast.IntLit{Value: 0, TokPos: t.Pos, ID: p.num()})
}

// nodes holds the chunks the common AST node types are cut from, one
// slab per type, so a parse costs one allocation per chunk instead of
// one per node.
type nodes struct {
	exprStmt    slab.Slab[ast.ExprStmt]
	declStmt    slab.Slab[ast.DeclStmt]
	block       slab.Slab[ast.Block]
	ifStmt      slab.Slab[ast.If]
	forStmt     slab.Slab[ast.For]
	returnStmt  slab.Slab[ast.Return]
	intLit      slab.Slab[ast.IntLit]
	charLit     slab.Slab[ast.CharLit]
	stringLit   slab.Slab[ast.StringLit]
	assign      slab.Slab[ast.Assign]
	binary      slab.Slab[ast.Binary]
	unary       slab.Slab[ast.Unary]
	postfix     slab.Slab[ast.Postfix]
	call        slab.Slab[ast.Call]
	index       slab.Slab[ast.Index]
	member      slab.Slab[ast.Member]
	baseType    slab.Slab[ast.BaseType]
	pointerType slab.Slab[ast.PointerType]
	funcType    slab.Slab[ast.FuncType]
	structType  slab.Slab[ast.StructType]
	funcDecl    slab.Slab[ast.FuncDecl]
	varDecl     slab.Slab[ast.VarDecl]
	paramDecl   slab.Slab[ast.ParamDecl]
	fieldDecl   slab.Slab[ast.FieldDecl]
}

// size sets every chunk to one value per 128 tokens, between 8 and 64.
// On the corpus each of these types occurs about once per 20 to 250
// tokens, so a chunk holds a few dozen nodes, and the unused tail of a
// small input's chunks stays small.
func (ns *nodes) size(tokens int) {
	n := min(64, max(8, tokens/128))
	ns.exprStmt.Size, ns.declStmt.Size, ns.block.Size, ns.ifStmt.Size = n, n, n, n
	ns.forStmt.Size, ns.returnStmt.Size, ns.intLit.Size, ns.charLit.Size = n, n, n, n
	ns.stringLit.Size, ns.assign.Size, ns.binary.Size, ns.unary.Size = n, n, n, n
	ns.postfix.Size, ns.call.Size, ns.index.Size, ns.member.Size = n, n, n, n
	ns.baseType.Size, ns.pointerType.Size, ns.funcType.Size, ns.structType.Size = n, n, n, n
	ns.funcDecl.Size, ns.varDecl.Size, ns.paramDecl.Size, ns.fieldDecl.Size = n, n, n, n
}

// newNode returns a pointer to a copy of v cut from s.
func newNode[T any](s *slab.Slab[T], v T) *T {
	n := s.Alloc()
	*n = v
	return n
}
