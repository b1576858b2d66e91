package lexer

import "strings"

// Interner is a per-compile symbol table that canonicalizes identifier,
// string-literal and #pragma spellings: every occurrence of the same text
// yields the same backing string. Beyond deduplication, interning copies
// the (small) spellings out of the source buffer, so AST nodes and the IL
// do not pin the whole source text via substring references. Keyword,
// operator and number tokens may still hold substrings of the source; that
// is harmless because the parser keeps none of that Text past the parse,
// and the token slice dies with it.
//
// An Interner is not safe for concurrent use; one compile's front end
// interns while it lexes. A nil *Interner is valid and interns nothing.
type Interner struct {
	m map[string]string
}

// NewInterner returns an empty per-compile interner.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]string, 128)}
}

// Intern returns the canonical instance of s.
func (in *Interner) Intern(s string) string {
	if in == nil {
		return s
	}
	if c, ok := in.m[s]; ok {
		return c
	}
	c := strings.Clone(s)
	in.m[c] = c
	return c
}
