package agentlang

import "fmt"

// tokenKind enumerates lexical token classes.
type tokenKind int

const (
	tokEOF tokenKind = iota + 1
	tokIdent
	tokInt
	tokString
	// Punctuation and operators.
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokLBracket
	tokRBracket
	tokComma
	tokSemicolon
	tokColon
	tokAssign
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokPercent
	tokEq
	tokNe
	tokLt
	tokLe
	tokGt
	tokGe
	tokAndAnd
	tokOrOr
	tokBang
	// Keywords.
	tokProc
	tokLet
	tokIf
	tokElse
	tokWhile
	tokFor
	tokReturn
	tokBreak
	tokContinue
	tokTrue
	tokFalse
	tokNull
)

// keyword returns the kind of the keyword spelled text, or tokIdent.
func keyword(text string) tokenKind {
	switch text {
	case "proc":
		return tokProc
	case "let":
		return tokLet
	case "if":
		return tokIf
	case "else":
		return tokElse
	case "while":
		return tokWhile
	case "for":
		return tokFor
	case "return":
		return tokReturn
	case "break":
		return tokBreak
	case "continue":
		return tokContinue
	case "true":
		return tokTrue
	case "false":
		return tokFalse
	case "null":
		return tokNull
	}
	return tokIdent
}

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokInt:
		return "integer literal"
	case tokString:
		return "string literal"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokComma:
		return "','"
	case tokSemicolon:
		return "';'"
	case tokColon:
		return "':'"
	case tokAssign:
		return "'='"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	case tokPercent:
		return "'%'"
	case tokEq:
		return "'=='"
	case tokNe:
		return "'!='"
	case tokLt:
		return "'<'"
	case tokLe:
		return "'<='"
	case tokGt:
		return "'>'"
	case tokGe:
		return "'>='"
	case tokAndAnd:
		return "'&&'"
	case tokOrOr:
		return "'||'"
	case tokBang:
		return "'!'"
	case tokProc:
		return "'proc'"
	case tokLet:
		return "'let'"
	case tokIf:
		return "'if'"
	case tokElse:
		return "'else'"
	case tokWhile:
		return "'while'"
	case tokFor:
		return "'for'"
	case tokReturn:
		return "'return'"
	case tokBreak:
		return "'break'"
	case tokContinue:
		return "'continue'"
	case tokTrue:
		return "'true'"
	case tokFalse:
		return "'false'"
	case tokNull:
		return "'null'"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

// token is one lexical unit with its source position. Its text is a
// window into the source, or the decoded value of a string literal
// that holds an escape or an invalid byte; the parser copies whatever
// text it keeps (parser.lookup).
type token struct {
	kind tokenKind
	text string // identifier or keyword, digits, or string literal value
	num  int64  // value for tokInt
	line int
	col  int
	// lineStart is the offset of the first byte of the token's line.
	lineStart int
}

// Pos describes a source location in agent code.
type Pos struct {
	Line int
	Col  int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// SyntaxError describes a lexing or parsing failure with its location.
type SyntaxError struct {
	Pos Pos
	Msg string
}

// Error renders the parse failure with its source position.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("agentlang: %s: %s", e.Pos, e.Msg)
}
