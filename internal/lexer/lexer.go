// Package lexer implements a hand-written scanner for the mini-C subset.
//
// The scanner handles // and /* */ comments, decimal/hex/octal integer
// literals, floating literals, character and string literals with the
// usual escape sequences, and every operator accepted by the parser.
package lexer

import (
	"fmt"
	"slices"
	"strings"

	"aliaslab/internal/token"
)

// Error is a lexical error with its file and source position.
type Error struct {
	File string
	Pos  token.Pos
	Msg  string
}

func (e *Error) Error() string { return e.Pos.In(e.File) + ": " + e.Msg }

// Lexer scans a mini-C source buffer into tokens.
type Lexer struct {
	src  string
	file string

	off       int // byte offset of the next unread byte
	line      int
	lineStart int // byte offset of the first byte of the current line

	// lits holds the texts of the literal tokens scanned so far, by
	// token.Token.Lit; identifiers and numbers are substrings of src.
	lits []string

	errs []*Error
}

// New returns a Lexer over src. The file name is used only in errors.
func New(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, lits: []string{""}}
}

// Lit returns the text of t, a token this lexer scanned.
func (l *Lexer) Lit(t token.Token) string { return l.lits[t.Lit] }

// literal returns a literal token of kind k with text lit.
func (l *Lexer) literal(k token.Kind, lit string, pos token.Pos) token.Token {
	l.lits = append(l.lits, lit)
	return token.Token{Kind: k, Lit: int32(len(l.lits) - 1), Pos: pos}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errs }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errs = append(l.errs, &Error{File: l.file, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// pos returns the position of the next unread byte; columns count
// bytes from 1.
func (l *Lexer) pos() token.Pos {
	return token.Pos{Line: l.line, Col: l.off - l.lineStart + 1}
}

// peek returns the next byte without consuming it, or 0 at EOF.
func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

// peekAt returns the byte n positions ahead, or 0 past EOF.
func (l *Lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.lineStart = l.off
	}
	return c
}

// skipLine moves to the next newline, or to the end of the input.
func (l *Lexer) skipLine() {
	if i := strings.IndexByte(l.src[l.off:], '\n'); i >= 0 {
		l.off += i
	} else {
		l.off = len(l.src)
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
func isHexDigit(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}
func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

// skipSpace consumes whitespace and comments. It reports unterminated
// block comments as errors.
func (l *Lexer) skipSpace() {
	for l.off < len(l.src) {
		switch c := l.src[l.off]; {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peekAt(1) == '/':
			l.skipLine()
		case c == '/' && l.peekAt(1) == '*':
			start := l.pos()
			body := l.off + 2
			end := len(l.src)
			closed := false
			if i := strings.Index(l.src[body:], "*/"); i >= 0 {
				end, closed = body+i+2, true
			}
			if n := strings.Count(l.src[body:end], "\n"); n > 0 {
				l.line += n
				l.lineStart = body + strings.LastIndexByte(l.src[body:end], '\n') + 1
			}
			l.off = end
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		case c == '#':
			// Preprocessor lines are not interpreted; the corpus does not
			// use them, but tolerating them keeps pasted snippets working.
			l.skipLine()
		default:
			return
		}
	}
}

// Next returns the next token, or a token of kind EOF at end of input.
func (l *Lexer) Next() token.Token {
	l.skipSpace()
	pos := l.pos()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}
	}
	c := l.peek()
	switch {
	case isLetter(c):
		return l.scanIdent(pos)
	case isDigit(c):
		return l.scanNumber(pos)
	case c == '.' && isDigit(l.peekAt(1)):
		return l.scanNumber(pos)
	case c == '\'':
		return l.scanChar(pos)
	case c == '"':
		return l.scanString(pos)
	}
	return l.scanOperator(pos)
}

// All scans the remaining input and returns every token, ending with
// EOF, with the texts of the literal tokens.
func (l *Lexer) All() token.Stream {
	// C source runs 3.7-4.9 bytes per token on the corpus, so a token
	// per 3.5 bytes is room for every token there. Denser text (the
	// generated population runs 2.5-3) grows the slice once. About a
	// third of the tokens are literals.
	n := (len(l.src) - l.off) * 2 / 7
	toks := make([]token.Token, 0, n+1)
	l.lits = slices.Grow(l.lits, n*2/5)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return token.Stream{Toks: toks, Lits: l.lits}
		}
	}
}

func (l *Lexer) scanIdent(pos token.Pos) token.Token {
	start, end := l.off, l.off+1
	for end < len(l.src) && (isLetter(l.src[end]) || isDigit(l.src[end])) {
		end++
	}
	l.off = end // identifiers hold no newline
	lit := l.src[start:end]
	kind := token.Lookup(lit)
	if kind != token.IDENT {
		return token.Token{Kind: kind, Pos: pos}
	}
	return l.literal(token.IDENT, lit, pos)
}

func (l *Lexer) scanNumber(pos token.Pos) token.Token {
	start := l.off
	kind := token.INT
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advance()
		l.advance()
		if !isHexDigit(l.peek()) {
			l.errorf(pos, "malformed hex literal")
		}
		for isHexDigit(l.peek()) {
			l.advance()
		}
	} else {
		for isDigit(l.peek()) {
			l.advance()
		}
		if l.peek() == '.' {
			kind = token.FLOAT
			l.advance()
			for isDigit(l.peek()) {
				l.advance()
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			next := l.peekAt(1)
			if isDigit(next) || ((next == '+' || next == '-') && isDigit(l.peekAt(2))) {
				kind = token.FLOAT
				l.advance()
				if l.peek() == '+' || l.peek() == '-' {
					l.advance()
				}
				for isDigit(l.peek()) {
					l.advance()
				}
			}
		}
	}
	// Integer suffixes (u, l, ul, ...) are accepted and dropped.
	litEnd := l.off
	for l.peek() == 'u' || l.peek() == 'U' || l.peek() == 'l' || l.peek() == 'L' {
		l.advance()
	}
	if kind == token.FLOAT {
		for l.peek() == 'f' || l.peek() == 'F' {
			l.advance()
		}
	}
	return l.literal(kind, l.src[start:litEnd], pos)
}

// scanEscape consumes one escape sequence after a backslash and returns
// the denoted byte.
func (l *Lexer) scanEscape(pos token.Pos) byte {
	if l.off >= len(l.src) {
		l.errorf(pos, "unterminated escape sequence")
		return 0
	}
	c := l.advance()
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case 'a':
		return 7
	case 'b':
		return 8
	case 'f':
		return 12
	case 'v':
		return 11
	case '\\', '\'', '"', '?':
		return c
	case 'x':
		var v int
		n := 0
		for isHexDigit(l.peek()) && n < 2 {
			d := l.advance()
			switch {
			case isDigit(d):
				v = v*16 + int(d-'0')
			case d >= 'a':
				v = v*16 + int(d-'a'+10)
			default:
				v = v*16 + int(d-'A'+10)
			}
			n++
		}
		if n == 0 {
			l.errorf(pos, "malformed hex escape")
		}
		return byte(v)
	}
	l.errorf(pos, "unknown escape sequence \\%c", c)
	return c
}

func (l *Lexer) scanChar(pos token.Pos) token.Token {
	l.advance() // opening quote
	var b byte
	if l.off >= len(l.src) {
		l.errorf(pos, "unterminated character literal")
		return l.literal(token.CHAR, "", pos)
	}
	c := l.advance()
	if c == '\\' {
		b = l.scanEscape(pos)
	} else if c == '\'' {
		l.errorf(pos, "empty character literal")
		return l.literal(token.CHAR, "", pos)
	} else {
		b = c
	}
	if l.peek() != '\'' {
		l.errorf(pos, "unterminated character literal")
	} else {
		l.advance()
	}
	return l.literal(token.CHAR, string(b), pos)
}

func (l *Lexer) scanString(pos token.Pos) token.Token {
	l.advance() // opening quote
	var sb strings.Builder
	for {
		if l.off >= len(l.src) || l.peek() == '\n' {
			l.errorf(pos, "unterminated string literal")
			break
		}
		c := l.advance()
		if c == '"' {
			break
		}
		if c == '\\' {
			sb.WriteByte(l.scanEscape(pos))
			continue
		}
		sb.WriteByte(c)
	}
	return l.literal(token.STRING, sb.String(), pos)
}

// operator table: longest match first within each leading byte.
func (l *Lexer) scanOperator(pos token.Pos) token.Token {
	// No operator byte is a newline, so the line stays.
	two := func(k token.Kind) token.Token {
		l.off += 2
		return token.Token{Kind: k, Pos: pos}
	}
	three := func(k token.Kind) token.Token {
		l.off += 3
		return token.Token{Kind: k, Pos: pos}
	}
	one := func(k token.Kind) token.Token {
		l.off++
		return token.Token{Kind: k, Pos: pos}
	}
	c, c1, c2 := l.peek(), l.peekAt(1), l.peekAt(2)
	switch c {
	case '+':
		switch c1 {
		case '+':
			return two(token.INC)
		case '=':
			return two(token.ADD_ASSIGN)
		}
		return one(token.ADD)
	case '-':
		switch c1 {
		case '-':
			return two(token.DEC)
		case '=':
			return two(token.SUB_ASSIGN)
		case '>':
			return two(token.ARROW)
		}
		return one(token.SUB)
	case '*':
		if c1 == '=' {
			return two(token.MUL_ASSIGN)
		}
		return one(token.MUL)
	case '/':
		if c1 == '=' {
			return two(token.QUO_ASSIGN)
		}
		return one(token.QUO)
	case '%':
		if c1 == '=' {
			return two(token.REM_ASSIGN)
		}
		return one(token.REM)
	case '&':
		switch c1 {
		case '&':
			return two(token.LAND)
		case '=':
			return two(token.AND_ASSIGN)
		}
		return one(token.AND)
	case '|':
		switch c1 {
		case '|':
			return two(token.LOR)
		case '=':
			return two(token.OR_ASSIGN)
		}
		return one(token.OR)
	case '^':
		if c1 == '=' {
			return two(token.XOR_ASSIGN)
		}
		return one(token.XOR)
	case '<':
		if c1 == '<' {
			if c2 == '=' {
				return three(token.SHL_ASSIGN)
			}
			return two(token.SHL)
		}
		if c1 == '=' {
			return two(token.LEQ)
		}
		return one(token.LSS)
	case '>':
		if c1 == '>' {
			if c2 == '=' {
				return three(token.SHR_ASSIGN)
			}
			return two(token.SHR)
		}
		if c1 == '=' {
			return two(token.GEQ)
		}
		return one(token.GTR)
	case '=':
		if c1 == '=' {
			return two(token.EQL)
		}
		return one(token.ASSIGN)
	case '!':
		if c1 == '=' {
			return two(token.NEQ)
		}
		return one(token.LNOT)
	case '~':
		return one(token.NOT)
	case '(':
		return one(token.LPAREN)
	case ')':
		return one(token.RPAREN)
	case '{':
		return one(token.LBRACE)
	case '}':
		return one(token.RBRACE)
	case '[':
		return one(token.LBRACK)
	case ']':
		return one(token.RBRACK)
	case ',':
		return one(token.COMMA)
	case ';':
		return one(token.SEMI)
	case ':':
		return one(token.COLON)
	case '?':
		return one(token.QUESTION)
	case '.':
		if c1 == '.' && c2 == '.' {
			return three(token.ELLIPSIS)
		}
		return one(token.PERIOD)
	}
	l.errorf(pos, "illegal character %q", c)
	l.advance()
	return l.literal(token.ILLEGAL, string(c), pos)
}
