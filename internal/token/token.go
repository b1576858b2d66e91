// Package token defines the lexical tokens of the C subset accepted by the
// Titan C compiler, along with source positions.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Punctuation kinds are named after their spelling; keyword
// kinds after the keyword.
const (
	EOF Kind = iota
	Ident
	IntLit
	FloatLit
	CharLit
	StringLit

	// Keywords.
	KwAuto
	KwBreak
	KwCase
	KwChar
	KwConst
	KwContinue
	KwDefault
	KwDo
	KwDouble
	KwElse
	KwEnum
	KwExtern
	KwFloat
	KwFor
	KwGoto
	KwIf
	KwInt
	KwLong
	KwRegister
	KwReturn
	KwShort
	KwSigned
	KwSizeof
	KwStatic
	KwStruct
	KwSwitch
	KwTypedef
	KwUnion
	KwUnsigned
	KwVoid
	KwVolatile
	KwWhile

	// Punctuation and operators.
	LParen   // (
	RParen   // )
	LBrace   // {
	RBrace   // }
	LBracket // [
	RBracket // ]
	Semi     // ;
	Comma    // ,
	Colon    // :
	Question // ?
	Ellipsis // ...

	Assign        // =
	PlusAssign    // +=
	MinusAssign   // -=
	StarAssign    // *=
	SlashAssign   // /=
	PercentAssign // %=
	AmpAssign     // &=
	PipeAssign    // |=
	CaretAssign   // ^=
	ShlAssign     // <<=
	ShrAssign     // >>=

	Plus    // +
	Minus   // -
	Star    // *
	Slash   // /
	Percent // %
	Inc     // ++
	Dec     // --

	Eq // ==
	Ne // !=
	Lt // <
	Gt // >
	Le // <=
	Ge // >=

	AndAnd // &&
	OrOr   // ||
	Not    // !

	Amp   // &
	Pipe  // |
	Caret // ^
	Tilde // ~
	Shl   // <<
	Shr   // >>

	Arrow // ->
	Dot   // .

	Pragma // #pragma line (whole line captured as Text)
)

var kindNames = map[Kind]string{
	EOF: "EOF", Ident: "identifier", IntLit: "integer literal",
	FloatLit: "float literal", CharLit: "char literal", StringLit: "string literal",
	KwAuto: "auto", KwBreak: "break", KwCase: "case", KwChar: "char",
	KwConst: "const", KwContinue: "continue", KwDefault: "default", KwDo: "do",
	KwDouble: "double", KwElse: "else", KwEnum: "enum", KwExtern: "extern",
	KwFloat: "float", KwFor: "for", KwGoto: "goto", KwIf: "if", KwInt: "int",
	KwLong: "long", KwRegister: "register", KwReturn: "return", KwShort: "short",
	KwSigned: "signed", KwSizeof: "sizeof", KwStatic: "static", KwStruct: "struct",
	KwSwitch: "switch", KwTypedef: "typedef", KwUnion: "union",
	KwUnsigned: "unsigned", KwVoid: "void", KwVolatile: "volatile", KwWhile: "while",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}",
	LBracket: "[", RBracket: "]", Semi: ";", Comma: ",", Colon: ":",
	Question: "?", Ellipsis: "...",
	Assign: "=", PlusAssign: "+=", MinusAssign: "-=", StarAssign: "*=",
	SlashAssign: "/=", PercentAssign: "%=", AmpAssign: "&=", PipeAssign: "|=",
	CaretAssign: "^=", ShlAssign: "<<=", ShrAssign: ">>=",
	Plus: "+", Minus: "-", Star: "*", Slash: "/", Percent: "%",
	Inc: "++", Dec: "--",
	Eq: "==", Ne: "!=", Lt: "<", Gt: ">", Le: "<=", Ge: ">=",
	AndAnd: "&&", OrOr: "||", Not: "!",
	Amp: "&", Pipe: "|", Caret: "^", Tilde: "~", Shl: "<<", Shr: ">>",
	Arrow: "->", Dot: ".",
	Pragma: "#pragma",
}

// String returns a human-readable name for the kind ("+=", "while", ...).
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Keywords maps keyword spellings to their kinds.
var Keywords = map[string]Kind{
	"auto": KwAuto, "break": KwBreak, "case": KwCase, "char": KwChar,
	"const": KwConst, "continue": KwContinue, "default": KwDefault, "do": KwDo,
	"double": KwDouble, "else": KwElse, "enum": KwEnum, "extern": KwExtern,
	"float": KwFloat, "for": KwFor, "goto": KwGoto, "if": KwIf, "int": KwInt,
	"long": KwLong, "register": KwRegister, "return": KwReturn, "short": KwShort,
	"signed": KwSigned, "sizeof": KwSizeof, "static": KwStatic,
	"struct": KwStruct, "switch": KwSwitch, "typedef": KwTypedef,
	"union": KwUnion, "unsigned": KwUnsigned, "void": KwVoid,
	"volatile": KwVolatile, "while": KwWhile,
}

// Pos is a source position.
type Pos struct {
	Line int `json:"line"` // 1-based
	Col  int `json:"col"`  // 1-based
}

// String formats the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a single lexical token.
//
// Text is the token's spelling, with three exceptions: for a StringLit it
// is the unescaped value, for a CharLit the one decoded byte, and for a
// Pragma the directive body. Identifier, string-literal and pragma Text is
// interned by a lexer given an Interner; keyword, operator and number Text
// is not, and may be a substring of the source, which the token slice can
// pin because it dies with the parse.
type Token struct {
	Kind Kind
	Text string
	Pos  Pos

	// Decoded literal values, valid per Kind.
	IntVal   int64   // IntLit, CharLit
	FloatVal float64 // FloatLit
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case Ident, IntLit, FloatLit, CharLit, StringLit:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}

// IsAssignOp reports whether k is a (possibly compound) assignment operator.
func (k Kind) IsAssignOp() bool {
	switch k {
	case Assign, PlusAssign, MinusAssign, StarAssign, SlashAssign,
		PercentAssign, AmpAssign, PipeAssign, CaretAssign, ShlAssign, ShrAssign:
		return true
	}
	return false
}

// IsTypeStart reports whether k can begin a type specifier in declarations.
func (k Kind) IsTypeStart() bool {
	switch k {
	case KwVoid, KwChar, KwShort, KwInt, KwLong, KwFloat, KwDouble,
		KwSigned, KwUnsigned, KwStruct, KwUnion, KwEnum, KwConst, KwVolatile,
		KwStatic, KwExtern, KwRegister, KwAuto, KwTypedef:
		return true
	}
	return false
}
