// Package token defines the lexical tokens of the mini-C subset analyzed
// by this repository, along with source positions.
//
// The subset follows the language accepted by the analyses in Ruf's
// PLDI'95 study: C with pointers, structs, unions, arrays, enums,
// typedefs, and function pointers, but without setjmp/longjmp, signal
// handlers, or casts between pointer and non-pointer types.
package token

import (
	"fmt"
	"strconv"
)

// Kind identifies the lexical class of a token.
type Kind uint8

// Token kinds. The order within operator groups matters only for
// readability; parsing precedence is encoded in the parser.
const (
	// Special tokens.
	ILLEGAL Kind = iota
	EOF

	// Literals and identifiers.
	IDENT  // main
	INT    // 12345
	FLOAT  // 123.45
	CHAR   // 'a'
	STRING // "abc"

	// Operators and delimiters.
	ADD // +
	SUB // -
	MUL // *
	QUO // /
	REM // %

	AND // &
	OR  // |
	XOR // ^
	SHL // <<
	SHR // >>
	NOT // ~

	LAND // &&
	LOR  // ||
	LNOT // !

	ASSIGN     // =
	ADD_ASSIGN // +=
	SUB_ASSIGN // -=
	MUL_ASSIGN // *=
	QUO_ASSIGN // /=
	REM_ASSIGN // %=
	AND_ASSIGN // &=
	OR_ASSIGN  // |=
	XOR_ASSIGN // ^=
	SHL_ASSIGN // <<=
	SHR_ASSIGN // >>=

	INC // ++
	DEC // --

	EQL // ==
	NEQ // !=
	LSS // <
	GTR // >
	LEQ // <=
	GEQ // >=

	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACK   // [
	RBRACK   // ]
	COMMA    // ,
	SEMI     // ;
	COLON    // :
	QUESTION // ?
	PERIOD   // .
	ARROW    // ->
	ELLIPSIS // ...

	// Keywords.
	keywordBeg
	BREAK
	CASE
	CONST
	CONTINUE
	DEFAULT
	DO
	ELSE
	ENUM
	EXTERN
	FOR
	GOTO
	IF
	RETURN
	SIZEOF
	STATIC
	STRUCT
	SWITCH
	TYPEDEF
	UNION
	UNSIGNED
	SIGNED
	VOID
	WHILE
	CHAR_KW   // char
	INT_KW    // int
	LONG_KW   // long
	SHORT_KW  // short
	FLOAT_KW  // float
	DOUBLE_KW // double
	keywordEnd
)

var kindNames = map[Kind]string{
	ILLEGAL: "ILLEGAL",
	EOF:     "EOF",
	IDENT:   "IDENT",
	INT:     "INT",
	FLOAT:   "FLOAT",
	CHAR:    "CHAR",
	STRING:  "STRING",

	ADD: "+",
	SUB: "-",
	MUL: "*",
	QUO: "/",
	REM: "%",

	AND: "&",
	OR:  "|",
	XOR: "^",
	SHL: "<<",
	SHR: ">>",
	NOT: "~",

	LAND: "&&",
	LOR:  "||",
	LNOT: "!",

	ASSIGN:     "=",
	ADD_ASSIGN: "+=",
	SUB_ASSIGN: "-=",
	MUL_ASSIGN: "*=",
	QUO_ASSIGN: "/=",
	REM_ASSIGN: "%=",
	AND_ASSIGN: "&=",
	OR_ASSIGN:  "|=",
	XOR_ASSIGN: "^=",
	SHL_ASSIGN: "<<=",
	SHR_ASSIGN: ">>=",

	INC: "++",
	DEC: "--",

	EQL: "==",
	NEQ: "!=",
	LSS: "<",
	GTR: ">",
	LEQ: "<=",
	GEQ: ">=",

	LPAREN:   "(",
	RPAREN:   ")",
	LBRACE:   "{",
	RBRACE:   "}",
	LBRACK:   "[",
	RBRACK:   "]",
	COMMA:    ",",
	SEMI:     ";",
	COLON:    ":",
	QUESTION: "?",
	PERIOD:   ".",
	ARROW:    "->",
	ELLIPSIS: "...",

	BREAK:     "break",
	CASE:      "case",
	CONST:     "const",
	CONTINUE:  "continue",
	DEFAULT:   "default",
	DO:        "do",
	ELSE:      "else",
	ENUM:      "enum",
	EXTERN:    "extern",
	FOR:       "for",
	GOTO:      "goto",
	IF:        "if",
	RETURN:    "return",
	SIZEOF:    "sizeof",
	STATIC:    "static",
	STRUCT:    "struct",
	SWITCH:    "switch",
	TYPEDEF:   "typedef",
	UNION:     "union",
	UNSIGNED:  "unsigned",
	SIGNED:    "signed",
	VOID:      "void",
	WHILE:     "while",
	CHAR_KW:   "char",
	INT_KW:    "int",
	LONG_KW:   "long",
	SHORT_KW:  "short",
	FLOAT_KW:  "float",
	DOUBLE_KW: "double",
}

// String returns the textual form of the token kind: the operator
// spelling for operators, the keyword for keywords, and the class name
// for literal classes.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Lookup maps an identifier to its keyword kind, or IDENT if it is not a
// keyword. The switch compiles to a search on the length and bytes of
// ident, which is cheaper than hashing every identifier the lexer
// scans.
func Lookup(ident string) Kind {
	switch ident {
	case "break":
		return BREAK
	case "case":
		return CASE
	case "const":
		return CONST
	case "continue":
		return CONTINUE
	case "default":
		return DEFAULT
	case "do":
		return DO
	case "else":
		return ELSE
	case "enum":
		return ENUM
	case "extern":
		return EXTERN
	case "for":
		return FOR
	case "goto":
		return GOTO
	case "if":
		return IF
	case "return":
		return RETURN
	case "sizeof":
		return SIZEOF
	case "static":
		return STATIC
	case "struct":
		return STRUCT
	case "switch":
		return SWITCH
	case "typedef":
		return TYPEDEF
	case "union":
		return UNION
	case "unsigned":
		return UNSIGNED
	case "signed":
		return SIGNED
	case "void":
		return VOID
	case "while":
		return WHILE
	case "char":
		return CHAR_KW
	case "int":
		return INT_KW
	case "long":
		return LONG_KW
	case "short":
		return SHORT_KW
	case "float":
		return FLOAT_KW
	case "double":
		return DOUBLE_KW
	}
	return IDENT
}

// IsKeyword reports whether k is a keyword kind.
func (k Kind) IsKeyword() bool { return k > keywordBeg && k < keywordEnd }

// IsLiteral reports whether k is an identifier or literal kind.
func (k Kind) IsLiteral() bool {
	switch k {
	case IDENT, INT, FLOAT, CHAR, STRING:
		return true
	}
	return false
}

// IsAssign reports whether k is a (possibly compound) assignment operator.
func (k Kind) IsAssign() bool { return k >= ASSIGN && k <= SHR_ASSIGN }

// CompoundOp returns the arithmetic operator underlying a compound
// assignment operator (e.g. ADD for ADD_ASSIGN). It panics when k is not
// a compound assignment.
func (k Kind) CompoundOp() Kind {
	switch k {
	case ADD_ASSIGN:
		return ADD
	case SUB_ASSIGN:
		return SUB
	case MUL_ASSIGN:
		return MUL
	case QUO_ASSIGN:
		return QUO
	case REM_ASSIGN:
		return REM
	case AND_ASSIGN:
		return AND
	case OR_ASSIGN:
		return OR
	case XOR_ASSIGN:
		return XOR
	case SHL_ASSIGN:
		return SHL
	case SHR_ASSIGN:
		return SHR
	}
	panic("token: CompoundOp on non-compound " + k.String())
}

// IsTypeStart reports whether k can begin a type specifier in the subset
// grammar (used by the parser to disambiguate declarations from
// expressions).
func (k Kind) IsTypeStart() bool {
	switch k {
	case VOID, CHAR_KW, INT_KW, LONG_KW, SHORT_KW, FLOAT_KW, DOUBLE_KW,
		STRUCT, UNION, ENUM, UNSIGNED, SIGNED, CONST:
		return true
	}
	return false
}

// Pos is a source position: 1-based line and column. It carries no
// file name: every position in a translation unit belongs to the same
// file, so the unit's name is added only where a position is printed
// (see In), which keeps Pos at two words in every token, AST node and
// graph node.
type Pos struct {
	Line int
	Col  int
}

// String renders the position as line:col.
func (p Pos) String() string { return p.In("") }

// In renders the position inside file as file:line:col, or as line:col
// when file is empty.
func (p Pos) In(file string) string {
	b := make([]byte, 0, len(file)+16)
	if file != "" {
		b = append(b, file...)
		b = append(b, ':')
	}
	b = strconv.AppendInt(b, int64(p.Line), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(p.Col), 10)
	return string(b)
}

// IsValid reports whether the position has been set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is a single lexical token and its position. It holds no
// pointers, so the garbage collector never scans a token array: the
// text of a literal token (IDENT, INT, FLOAT, CHAR, STRING) is entry
// Lit of its Stream's Lits.
type Token struct {
	Kind Kind
	Lit  int32 // index of the text in Stream.Lits; 0 for other tokens
	Pos  Pos
}

// Stream is a lexed unit: its tokens, ending with EOF, and the texts
// of its literal tokens. Lits[0] is "", the text of every other token.
type Stream struct {
	Toks []Token
	Lits []string
}

// Lit returns the text of t, a token of s.
func (s *Stream) Lit(t Token) string { return s.Lits[t.Lit] }

// Format renders t, a token of s, for diagnostics.
func (s *Stream) Format(t Token) string {
	if t.Kind.IsLiteral() {
		return fmt.Sprintf("%s(%q)", kindNames[t.Kind], s.Lit(t))
	}
	return t.Kind.String()
}
