// Package ast declares the abstract syntax tree for the mini-C subset.
//
// The tree is deliberately close to C's surface syntax; semantic
// information (types, symbols, addressability) is attached by package
// sema rather than being baked into the node shapes.
package ast

import (
	"aliaslab/internal/token"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// ---------------------------------------------------------------------------
// Type expressions
//
// Type syntax is represented structurally; sema resolves it to ctypes.

// TypeExpr is implemented by type syntax nodes.
type TypeExpr interface {
	Node
	typeExpr()
}

// BaseType is a builtin scalar type name (void, char, int, long, short,
// float, double), possibly with signedness qualifiers already folded in.
type BaseType struct {
	Name   string // "void", "char", "int", "long", "short", "float", "double"
	TokPos token.Pos
}

func (t *BaseType) Pos() token.Pos { return t.TokPos }
func (t *BaseType) typeExpr()      {}

// NamedType refers to a typedef name.
type NamedType struct {
	Name   string
	TokPos token.Pos
}

func (t *NamedType) Pos() token.Pos { return t.TokPos }
func (t *NamedType) typeExpr()      {}

// PointerType is a pointer to Elem.
type PointerType struct {
	Elem   TypeExpr
	TokPos token.Pos
}

func (t *PointerType) Pos() token.Pos { return t.TokPos }
func (t *PointerType) typeExpr()      {}

// ArrayType is an array of Elem. Len < 0 means an unsized array
// (e.g. a parameter or a tentative definition completed by an initializer).
type ArrayType struct {
	Elem   TypeExpr
	Len    int
	TokPos token.Pos
}

func (t *ArrayType) Pos() token.Pos { return t.TokPos }
func (t *ArrayType) typeExpr()      {}

// StructType is a struct or union reference or definition.
// If Fields is nil the node is a reference to a previously declared tag.
type StructType struct {
	Union  bool
	Tag    string // may be empty for anonymous definitions
	Fields []*FieldDecl
	TokPos token.Pos
}

func (t *StructType) Pos() token.Pos { return t.TokPos }
func (t *StructType) typeExpr()      {}

// EnumType is an enum reference or definition. Enum constants become
// integer constants during semantic analysis.
type EnumType struct {
	Tag     string
	Members []EnumMember
	Defined bool // true when the braces were present
	TokPos  token.Pos
}

// EnumMember is one enumerator, with an optional explicit value.
type EnumMember struct {
	Name   string
	Value  Expr // nil when implicit
	TokPos token.Pos
}

func (t *EnumType) Pos() token.Pos { return t.TokPos }
func (t *EnumType) typeExpr()      {}

// FuncType is a function type: parameters and result. Used both for
// function declarations and for pointers to functions.
type FuncType struct {
	Params   []*ParamDecl
	Variadic bool
	Result   TypeExpr
	TokPos   token.Pos
}

func (t *FuncType) Pos() token.Pos { return t.TokPos }
func (t *FuncType) typeExpr()      {}

// FieldDecl is one struct/union member.
type FieldDecl struct {
	Name   string
	Type   TypeExpr
	TokPos token.Pos
}

func (d *FieldDecl) Pos() token.Pos { return d.TokPos }

// ParamDecl is one function parameter. Name may be empty in prototypes.
type ParamDecl struct {
	Name   string
	Type   TypeExpr
	TokPos token.Pos
}

func (d *ParamDecl) Pos() token.Pos { return d.TokPos }

// ---------------------------------------------------------------------------
// Expressions

// Expr is implemented by all expression nodes.
//
// ExprID returns the expression's number: the parser numbers the
// expressions of a file 1, 2, 3, ... as it builds them, so package sema
// can keep its per-expression facts in slices indexed by the number
// (ast.File.Exprs is the length of such a table). Each expression
// node's ID field holds its number; 0 means unnumbered.
type Expr interface {
	Node
	ExprID() int
	expr()
}

// Ident is a use of a name (variable, function, or enum constant).
type Ident struct {
	Name   string
	TokPos token.Pos
	ID     int
}

func (e *Ident) Pos() token.Pos { return e.TokPos }
func (e *Ident) expr()          {}
func (e *Ident) ExprID() int    { return e.ID }

// IntLit is an integer literal.
type IntLit struct {
	Value  int64
	TokPos token.Pos
	ID     int
}

func (e *IntLit) Pos() token.Pos { return e.TokPos }
func (e *IntLit) expr()          {}
func (e *IntLit) ExprID() int    { return e.ID }

// FloatLit is a floating literal.
type FloatLit struct {
	Value  float64
	TokPos token.Pos
	ID     int
}

func (e *FloatLit) Pos() token.Pos { return e.TokPos }
func (e *FloatLit) expr()          {}
func (e *FloatLit) ExprID() int    { return e.ID }

// CharLit is a character constant (value of the single byte).
type CharLit struct {
	Value  byte
	TokPos token.Pos
	ID     int
}

func (e *CharLit) Pos() token.Pos { return e.TokPos }
func (e *CharLit) expr()          {}
func (e *CharLit) ExprID() int    { return e.ID }

// StringLit is a string literal; it denotes the address of anonymous
// static storage.
type StringLit struct {
	Value  string
	TokPos token.Pos
	ID     int
}

func (e *StringLit) Pos() token.Pos { return e.TokPos }
func (e *StringLit) expr()          {}
func (e *StringLit) ExprID() int    { return e.ID }

// Unary is a prefix unary operation: - ! ~ * & ++ -- (prefix).
type Unary struct {
	Op     token.Kind // SUB, LNOT, NOT, MUL (deref), AND (addr-of), INC, DEC
	X      Expr
	TokPos token.Pos
	ID     int
}

func (e *Unary) Pos() token.Pos { return e.TokPos }
func (e *Unary) expr()          {}
func (e *Unary) ExprID() int    { return e.ID }

// Postfix is a postfix ++ or --.
type Postfix struct {
	Op     token.Kind // INC or DEC
	X      Expr
	TokPos token.Pos
	ID     int
}

func (e *Postfix) Pos() token.Pos { return e.TokPos }
func (e *Postfix) expr()          {}
func (e *Postfix) ExprID() int    { return e.ID }

// Binary is a binary operation, including && and || (short-circuit) and
// comparisons.
type Binary struct {
	Op     token.Kind
	X, Y   Expr
	TokPos token.Pos
	ID     int
}

func (e *Binary) Pos() token.Pos { return e.TokPos }
func (e *Binary) expr()          {}
func (e *Binary) ExprID() int    { return e.ID }

// Assign is an assignment, possibly compound (Op != ASSIGN).
type Assign struct {
	Op     token.Kind // ASSIGN or a compound assignment kind
	LHS    Expr
	RHS    Expr
	TokPos token.Pos
	ID     int
}

func (e *Assign) Pos() token.Pos { return e.TokPos }
func (e *Assign) expr()          {}
func (e *Assign) ExprID() int    { return e.ID }

// Cond is the ternary conditional operator.
type Cond struct {
	Cond, Then, Else Expr
	TokPos           token.Pos
	ID               int
}

func (e *Cond) Pos() token.Pos { return e.TokPos }
func (e *Cond) expr()          {}
func (e *Cond) ExprID() int    { return e.ID }

// Call is a function call; Fun may be an Ident (direct) or any
// pointer-valued expression (indirect).
type Call struct {
	Fun    Expr
	Args   []Expr
	TokPos token.Pos
	ID     int
}

func (e *Call) Pos() token.Pos { return e.TokPos }
func (e *Call) expr()          {}
func (e *Call) ExprID() int    { return e.ID }

// Index is array subscripting a[i].
type Index struct {
	X, Idx Expr
	TokPos token.Pos
	ID     int
}

func (e *Index) Pos() token.Pos { return e.TokPos }
func (e *Index) expr()          {}
func (e *Index) ExprID() int    { return e.ID }

// Member is a field selection: X.Name (Arrow false) or X->Name (Arrow true).
type Member struct {
	X      Expr
	Name   string
	Arrow  bool
	TokPos token.Pos
	ID     int
}

func (e *Member) Pos() token.Pos { return e.TokPos }
func (e *Member) expr()          {}
func (e *Member) ExprID() int    { return e.ID }

// Cast is an explicit type conversion.
type Cast struct {
	Type   TypeExpr
	X      Expr
	TokPos token.Pos
	ID     int
}

func (e *Cast) Pos() token.Pos { return e.TokPos }
func (e *Cast) expr()          {}
func (e *Cast) ExprID() int    { return e.ID }

// SizeofExpr is sizeof applied to an expression or a type.
type SizeofExpr struct {
	X      Expr     // nil when Type != nil
	Type   TypeExpr // nil when X != nil
	TokPos token.Pos
	ID     int
}

func (e *SizeofExpr) Pos() token.Pos { return e.TokPos }
func (e *SizeofExpr) expr()          {}
func (e *SizeofExpr) ExprID() int    { return e.ID }

// Comma is the comma operator: evaluate X, then Y; value of Y.
type Comma struct {
	X, Y   Expr
	TokPos token.Pos
	ID     int
}

func (e *Comma) Pos() token.Pos { return e.TokPos }
func (e *Comma) expr()          {}
func (e *Comma) ExprID() int    { return e.ID }

// ---------------------------------------------------------------------------
// Statements

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmt()
}

// ExprStmt is an expression evaluated for effect.
type ExprStmt struct {
	X      Expr
	TokPos token.Pos
}

func (s *ExprStmt) Pos() token.Pos { return s.TokPos }
func (s *ExprStmt) stmt()          {}

// DeclStmt is a local variable declaration (possibly several declarators
// flattened into separate VarDecls by the parser).
type DeclStmt struct {
	Decl   *VarDecl
	TokPos token.Pos
}

func (s *DeclStmt) Pos() token.Pos { return s.TokPos }
func (s *DeclStmt) stmt()          {}

// Block is a brace-delimited statement list with its own scope.
type Block struct {
	Stmts  []Stmt
	TokPos token.Pos
}

func (s *Block) Pos() token.Pos { return s.TokPos }
func (s *Block) stmt()          {}

// If is a conditional with optional else.
type If struct {
	Cond   Expr
	Then   Stmt
	Else   Stmt // may be nil
	TokPos token.Pos
}

func (s *If) Pos() token.Pos { return s.TokPos }
func (s *If) stmt()          {}

// While is a while loop; DoWhile distinguishes do { } while (c);.
type While struct {
	Cond    Expr
	Body    Stmt
	DoWhile bool
	TokPos  token.Pos
}

func (s *While) Pos() token.Pos { return s.TokPos }
func (s *While) stmt()          {}

// For is a C for loop; any of Init/Cond/Post may be nil. Init may be a
// DeclStmt or an ExprStmt.
type For struct {
	Init   Stmt
	Cond   Expr
	Post   Expr
	Body   Stmt
	TokPos token.Pos
}

func (s *For) Pos() token.Pos { return s.TokPos }
func (s *For) stmt()          {}

// Return returns from the enclosing function; Value may be nil.
type Return struct {
	Value  Expr
	TokPos token.Pos
}

func (s *Return) Pos() token.Pos { return s.TokPos }
func (s *Return) stmt()          {}

// Break exits the innermost loop or switch.
type Break struct{ TokPos token.Pos }

func (s *Break) Pos() token.Pos { return s.TokPos }
func (s *Break) stmt()          {}

// Continue re-tests the innermost loop.
type Continue struct{ TokPos token.Pos }

func (s *Continue) Pos() token.Pos { return s.TokPos }
func (s *Continue) stmt()          {}

// Switch dispatches on an integer expression. Cases hold their body
// statements directly; fallthrough between cases is preserved by the
// parser recording bodies per case label in source order.
type Switch struct {
	Tag    Expr
	Cases  []*Case
	TokPos token.Pos
}

func (s *Switch) Pos() token.Pos { return s.TokPos }
func (s *Switch) stmt()          {}

// Case is one case (or default, when Values is empty) label and the
// statements that follow it up to the next label.
type Case struct {
	Values []Expr // empty = default
	Body   []Stmt
	TokPos token.Pos
}

func (c *Case) Pos() token.Pos { return c.TokPos }

// Empty is a lone semicolon.
type Empty struct{ TokPos token.Pos }

func (s *Empty) Pos() token.Pos { return s.TokPos }
func (s *Empty) stmt()          {}

// ---------------------------------------------------------------------------
// Declarations

// Decl is implemented by top-level declarations.
type Decl interface {
	Node
	decl()
}

// VarDecl declares a single variable, optionally initialized.
type VarDecl struct {
	Name     string
	Type     TypeExpr
	Init     Expr   // scalar initializer, may be nil
	InitList []Expr // brace initializer elements, may be nil
	Static   bool
	Extern   bool
	TokPos   token.Pos
}

func (d *VarDecl) Pos() token.Pos { return d.TokPos }
func (d *VarDecl) decl()          {}

// FuncDecl declares (Body nil) or defines a function.
type FuncDecl struct {
	Name   string
	Type   *FuncType
	Body   *Block // nil for prototypes
	Static bool
	TokPos token.Pos
}

func (d *FuncDecl) Pos() token.Pos { return d.TokPos }
func (d *FuncDecl) decl()          {}

// TypedefDecl binds a name to a type.
type TypedefDecl struct {
	Name   string
	Type   TypeExpr
	TokPos token.Pos
}

func (d *TypedefDecl) Pos() token.Pos { return d.TokPos }
func (d *TypedefDecl) decl()          {}

// TagDecl is a standalone struct/union/enum definition at file scope
// (e.g. "struct node { ... };").
type TagDecl struct {
	Type   TypeExpr // *StructType or *EnumType
	TokPos token.Pos
}

func (d *TagDecl) Pos() token.Pos { return d.TokPos }
func (d *TagDecl) decl()          {}

// File is a parsed translation unit.
type File struct {
	Name  string
	Decls []Decl

	// Exprs is one past the largest expression number the parser
	// assigned (see Expr): the length of a table indexed by it.
	Exprs int
}

// Pos returns the position of the first declaration, or a zero Pos.
func (f *File) Pos() token.Pos {
	if len(f.Decls) > 0 {
		return f.Decls[0].Pos()
	}
	return token.Pos{}
}
