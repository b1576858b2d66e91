// Package lexer converts C source text into a stream of tokens.
//
// The lexer handles the full C operator set (including the compound
// assignment operators, ++/--, -> and the ?: pieces), character/string
// escapes, decimal/octal/hex integer constants, floating constants with
// exponents and suffixes, and both comment styles. #pragma lines are
// returned as single Pragma tokens; all other preprocessor lines are
// rejected (the compiler consumes post-preprocessed source, as PCC did).
package lexer

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans one source buffer.
type Lexer struct {
	src    string
	off    int
	line   int
	col    int
	intern *Interner
}

// NewInterning returns a lexer over src that canonicalizes identifier,
// string-literal and pragma spellings through in (nil interns nothing).
func NewInterning(src string, in *Interner) *Lexer {
	return &Lexer{src: src, line: 1, col: 1, intern: in}
}

// Tokenize scans the entire input, returning all tokens up to and including
// the EOF token.
func Tokenize(src string) ([]token.Token, error) {
	return TokenizeInterned(src, nil)
}

// TokenizeInterned is Tokenize with identifier, string-literal and pragma
// interning through the given per-compile interner (nil interns nothing).
//
// The token slice is allocated once, at len(src)+1: every token but EOF
// consumes at least one byte of src, so the bound is never exceeded and the
// slice never regrows.
func TokenizeInterned(src string, in *Interner) ([]token.Token, error) {
	lx := NewInterning(src, in)
	toks := make([]token.Token, 0, len(src)+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, nil
		}
	}
}

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) errorf(pos token.Pos, format string, args ...interface{}) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// skipSpace consumes whitespace and comments. It reports whether a newline
// was crossed (needed for preprocessor-line detection).
func (l *Lexer) skipSpace() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v':
			l.advance()
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errorf(start, "unterminated comment")
			}
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

// Next returns the next token.
func (l *Lexer) Next() (token.Token, error) {
	if err := l.skipSpace(); err != nil {
		return token.Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case c == '#':
		return l.lexDirective(pos)
	case isIdentStart(c):
		return l.lexIdent(pos), nil
	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		return l.lexNumber(pos)
	case c == '\'':
		return l.lexChar(pos)
	case c == '"':
		return l.lexString(pos)
	default:
		return l.lexOperator(pos)
	}
}

func (l *Lexer) lexDirective(pos token.Pos) (token.Token, error) {
	start := l.off
	for l.off < len(l.src) && l.peek() != '\n' {
		l.advance()
	}
	line := strings.TrimSpace(l.src[start:l.off])
	body, ok := strings.CutPrefix(line, "#")
	if !ok {
		return token.Token{}, l.errorf(pos, "malformed directive %q", line)
	}
	body = strings.TrimSpace(body)
	if rest, ok := strings.CutPrefix(body, "pragma"); ok {
		return token.Token{Kind: token.Pragma, Text: l.intern.Intern(strings.TrimSpace(rest)), Pos: pos}, nil
	}
	return token.Token{}, l.errorf(pos, "unsupported preprocessor directive %q (input must be preprocessed)", line)
}

func (l *Lexer) lexIdent(pos token.Pos) token.Token {
	start := l.off
	for l.off < len(l.src) && isIdentCont(l.peek()) {
		l.advance()
	}
	text := l.src[start:l.off]
	if kw, ok := token.Keywords[text]; ok {
		return token.Token{Kind: kw, Text: text, Pos: pos}
	}
	return token.Token{Kind: token.Ident, Text: l.intern.Intern(text), Pos: pos}
}

func (l *Lexer) lexNumber(pos token.Pos) (token.Token, error) {
	start := l.off
	isFloat := false
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		for l.off < len(l.src) && isHexDigit(l.peek()) {
			l.advance()
		}
	} else {
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		if l.peek() == '.' {
			isFloat = true
			l.advance()
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			next := l.peek2()
			if isDigit(next) || next == '+' || next == '-' {
				isFloat = true
				l.advance()
				if l.peek() == '+' || l.peek() == '-' {
					l.advance()
				}
				for l.off < len(l.src) && isDigit(l.peek()) {
					l.advance()
				}
			}
		}
	}
	text := l.src[start:l.off]
	// Suffixes: f/F force float; l/L and u/U are accepted and ignored
	// (the IL models a single integer and a single float width).
	suffix := ""
	for l.off < len(l.src) {
		switch l.peek() {
		case 'f', 'F':
			isFloat = true
			suffix += string(l.advance())
		case 'l', 'L', 'u', 'U':
			suffix += string(l.advance())
		default:
			goto done
		}
	}
done:
	if isFloat {
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token.Token{}, l.errorf(pos, "bad float constant %q", text+suffix)
		}
		return token.Token{Kind: token.FloatLit, Text: text + suffix, Pos: pos, FloatVal: v}, nil
	}
	v, err := strconv.ParseInt(text, 0, 64)
	if err != nil {
		// Retry as unsigned for large constants, wrapping into int64.
		u, uerr := strconv.ParseUint(text, 0, 64)
		if uerr != nil {
			return token.Token{}, l.errorf(pos, "bad integer constant %q", text+suffix)
		}
		v = int64(u)
	}
	return token.Token{Kind: token.IntLit, Text: text + suffix, Pos: pos, IntVal: v}, nil
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (l *Lexer) lexEscape(pos token.Pos) (byte, error) {
	if l.off >= len(l.src) {
		return 0, l.errorf(pos, "unterminated escape")
	}
	c := l.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case 'b':
		return '\b', nil
	case 'f':
		return '\f', nil
	case 'v':
		return '\v', nil
	case 'a':
		return 7, nil
	case '0', '1', '2', '3', '4', '5', '6', '7':
		v := int(c - '0')
		for i := 0; i < 2 && l.off < len(l.src) && l.peek() >= '0' && l.peek() <= '7'; i++ {
			v = v*8 + int(l.advance()-'0')
		}
		return byte(v), nil
	case 'x':
		v := 0
		n := 0
		for l.off < len(l.src) && isHexDigit(l.peek()) {
			d := l.advance()
			v = v*16 + hexVal(d)
			n++
		}
		if n == 0 {
			return 0, l.errorf(pos, "\\x with no hex digits")
		}
		return byte(v), nil
	case '\\', '\'', '"', '?':
		return c, nil
	default:
		return 0, l.errorf(pos, "unknown escape \\%c", c)
	}
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}

func (l *Lexer) lexChar(pos token.Pos) (token.Token, error) {
	l.advance() // '
	if l.off >= len(l.src) {
		return token.Token{}, l.errorf(pos, "unterminated character constant")
	}
	var v byte
	c := l.advance()
	if c == '\\' {
		e, err := l.lexEscape(pos)
		if err != nil {
			return token.Token{}, err
		}
		v = e
	} else if c == '\'' {
		return token.Token{}, l.errorf(pos, "empty character constant")
	} else {
		v = c
	}
	if l.off >= len(l.src) || l.advance() != '\'' {
		return token.Token{}, l.errorf(pos, "unterminated character constant")
	}
	return token.Token{Kind: token.CharLit, Text: string(v), Pos: pos, IntVal: int64(v)}, nil
}

func (l *Lexer) lexString(pos token.Pos) (token.Token, error) {
	l.advance() // "
	var sb strings.Builder
	for {
		if l.off >= len(l.src) {
			return token.Token{}, l.errorf(pos, "unterminated string constant")
		}
		c := l.advance()
		if c == '"' {
			break
		}
		if c == '\n' {
			return token.Token{}, l.errorf(pos, "newline in string constant")
		}
		if c == '\\' {
			e, err := l.lexEscape(pos)
			if err != nil {
				return token.Token{}, err
			}
			sb.WriteByte(e)
			continue
		}
		sb.WriteByte(c)
	}
	s := l.intern.Intern(sb.String())
	return token.Token{Kind: token.StringLit, Text: s, Pos: pos}, nil
}

// twoCharOps maps the first byte of a multi-char operator to candidate
// continuations, longest first.
func (l *Lexer) lexOperator(pos token.Pos) (token.Token, error) {
	mk := func(k token.Kind, n int) (token.Token, error) {
		text := l.src[l.off : l.off+n]
		for i := 0; i < n; i++ {
			l.advance()
		}
		return token.Token{Kind: k, Text: text, Pos: pos}, nil
	}
	rest := l.src[l.off:]
	switch {
	case strings.HasPrefix(rest, "..."):
		return mk(token.Ellipsis, 3)
	case strings.HasPrefix(rest, "<<="):
		return mk(token.ShlAssign, 3)
	case strings.HasPrefix(rest, ">>="):
		return mk(token.ShrAssign, 3)
	case strings.HasPrefix(rest, "<<"):
		return mk(token.Shl, 2)
	case strings.HasPrefix(rest, ">>"):
		return mk(token.Shr, 2)
	case strings.HasPrefix(rest, "++"):
		return mk(token.Inc, 2)
	case strings.HasPrefix(rest, "--"):
		return mk(token.Dec, 2)
	case strings.HasPrefix(rest, "->"):
		return mk(token.Arrow, 2)
	case strings.HasPrefix(rest, "=="):
		return mk(token.Eq, 2)
	case strings.HasPrefix(rest, "!="):
		return mk(token.Ne, 2)
	case strings.HasPrefix(rest, "<="):
		return mk(token.Le, 2)
	case strings.HasPrefix(rest, ">="):
		return mk(token.Ge, 2)
	case strings.HasPrefix(rest, "&&"):
		return mk(token.AndAnd, 2)
	case strings.HasPrefix(rest, "||"):
		return mk(token.OrOr, 2)
	case strings.HasPrefix(rest, "+="):
		return mk(token.PlusAssign, 2)
	case strings.HasPrefix(rest, "-="):
		return mk(token.MinusAssign, 2)
	case strings.HasPrefix(rest, "*="):
		return mk(token.StarAssign, 2)
	case strings.HasPrefix(rest, "/="):
		return mk(token.SlashAssign, 2)
	case strings.HasPrefix(rest, "%="):
		return mk(token.PercentAssign, 2)
	case strings.HasPrefix(rest, "&="):
		return mk(token.AmpAssign, 2)
	case strings.HasPrefix(rest, "|="):
		return mk(token.PipeAssign, 2)
	case strings.HasPrefix(rest, "^="):
		return mk(token.CaretAssign, 2)
	}
	if k, ok := singleOps[l.peek()]; ok {
		return mk(k, 1)
	}
	return token.Token{}, l.errorf(pos, "unexpected character %q", string(l.peek()))
}

// singleOps maps single-character operators to their kinds. Package-level
// so lexOperator (called once per operator token) allocates nothing.
var singleOps = map[byte]token.Kind{
	'(': token.LParen, ')': token.RParen, '{': token.LBrace, '}': token.RBrace,
	'[': token.LBracket, ']': token.RBracket, ';': token.Semi, ',': token.Comma,
	':': token.Colon, '?': token.Question, '=': token.Assign,
	'+': token.Plus, '-': token.Minus, '*': token.Star, '/': token.Slash,
	'%': token.Percent, '<': token.Lt, '>': token.Gt, '!': token.Not,
	'&': token.Amp, '|': token.Pipe, '^': token.Caret, '~': token.Tilde,
	'.': token.Dot,
}
