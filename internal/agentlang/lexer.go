package agentlang

import (
	"fmt"
	"math"
	"strings"
	"unicode"
	"unicode/utf8"
)

// lexer turns agentlang source into a token stream. Comments start with
// '#' and run to end of line; a NUL byte ends the source.
//
// It scans bytes and decodes UTF-8 only at a byte >= utf8.RuneSelf.
// Columns count runes, an invalid byte as one: the column of offset off
// is off - lineStart - wide + 1, where wide counts the bytes beyond the
// first of each multi-byte rune passed on the current line.
type lexer struct {
	src       string
	off       int
	line      int
	lineStart int
	wide      int
}

func newLexer(src string) lexer {
	return lexer{src: src, line: 1}
}

func (l *lexer) col() int { return l.off - l.lineStart - l.wide + 1 }

// errf reports an error at the lexer's current position.
func (l *lexer) errf(format string, args ...any) *SyntaxError {
	return &SyntaxError{Pos: Pos{Line: l.line, Col: l.col()}, Msg: fmt.Sprintf(format, args...)}
}

// peek decodes the rune at the current offset; it returns 0 at the end
// of the source, as for a NUL byte.
func (l *lexer) peek() (rune, int) {
	if l.off >= len(l.src) {
		return 0, 0
	}
	if c := l.src[l.off]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[l.off:])
}

// skip moves past a rune of size bytes that peek returned.
func (l *lexer) skip(r rune, size int) {
	l.off += size
	if r == '\n' {
		l.line++
		l.lineStart = l.off
		l.wide = 0
	} else if size > 1 {
		l.wide += size - 1
	}
}

func (l *lexer) skipSpaceAndComments() {
	src, off := l.src, l.off
	for ; off < len(src); off++ {
		switch src[off] {
		case ' ', '\t', '\r':
		case '\n':
			l.line++
			l.lineStart = off + 1
			l.wide = 0
		case '#':
			start, wide := off, false
			for ; off < len(src); off++ {
				c := src[off]
				if c == '\n' || c == 0 {
					break
				}
				wide = wide || c >= utf8.RuneSelf
			}
			if wide {
				seg := src[start:off]
				l.wide += len(seg) - utf8.RuneCountInString(seg)
			}
			off-- // the loop steps onto the '\n' or NUL again
		default:
			l.off = off
			return
		}
	}
	l.off = off
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isASCIIIdentPart(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_'
}

// next lexes the next token into t.
func (l *lexer) next(t *token) error {
	l.skipSpaceAndComments()
	*t = token{line: l.line, col: l.col(), lineStart: l.lineStart}
	if l.off >= len(l.src) {
		t.kind = tokEOF
		return nil
	}
	c := l.src[l.off]
	switch {
	case c >= utf8.RuneSelf:
		r, size := utf8.DecodeRuneInString(l.src[l.off:])
		switch {
		case isIdentStart(r):
			l.ident(t)
		case unicode.IsDigit(r):
			return l.number(t)
		default:
			l.skip(r, size)
			return &SyntaxError{Pos: Pos{Line: t.line, Col: t.col}, Msg: fmt.Sprintf("unexpected character %q", r)}
		}
		return nil
	case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_':
		l.ident(t)
		return nil
	case '0' <= c && c <= '9':
		return l.number(t)
	case c == '"':
		return l.str(t)
	case c == 0:
		t.kind = tokEOF
		return nil
	}
	l.off++
	switch c {
	case '(':
		t.kind = tokLParen
	case ')':
		t.kind = tokRParen
	case '{':
		t.kind = tokLBrace
	case '}':
		t.kind = tokRBrace
	case '[':
		t.kind = tokLBracket
	case ']':
		t.kind = tokRBracket
	case ',':
		t.kind = tokComma
	case ';':
		t.kind = tokSemicolon
	case ':':
		t.kind = tokColon
	case '+':
		t.kind = tokPlus
	case '-':
		t.kind = tokMinus
	case '*':
		t.kind = tokStar
	case '/':
		t.kind = tokSlash
	case '%':
		t.kind = tokPercent
	case '=':
		t.kind = l.pair('=', tokEq, tokAssign)
	case '!':
		t.kind = l.pair('=', tokNe, tokBang)
	case '<':
		t.kind = l.pair('=', tokLe, tokLt)
	case '>':
		t.kind = l.pair('=', tokGe, tokGt)
	case '&', '|':
		if l.pair(c, tokAndAnd, 0) == 0 {
			return l.errf("unexpected character %q", rune(c))
		}
		t.kind = tokAndAnd
		if c == '|' {
			t.kind = tokOrOr
		}
	default:
		return &SyntaxError{Pos: Pos{Line: t.line, Col: t.col}, Msg: fmt.Sprintf("unexpected character %q", rune(c))}
	}
	return nil
}

// pair consumes second if it comes next and returns with, or else
// returns without.
func (l *lexer) pair(second byte, with, without tokenKind) tokenKind {
	if l.off < len(l.src) && l.src[l.off] == second {
		l.off++
		return with
	}
	return without
}

// ident lexes an identifier or keyword; its text is a window into the
// source.
func (l *lexer) ident(t *token) {
	src, start := l.src, l.off
	for {
		off := l.off
		for off < len(src) && isASCIIIdentPart(src[off]) {
			off++
		}
		l.off = off
		if off == len(src) || src[off] < utf8.RuneSelf {
			break
		}
		r, size := utf8.DecodeRuneInString(src[off:])
		if !isIdentPart(r) {
			break
		}
		l.skip(r, size)
	}
	t.text = src[start:l.off]
	t.kind = keyword(t.text)
}

// number lexes a decimal integer literal.
func (l *lexer) number(t *token) error {
	src, start, ascii := l.src, l.off, true
	for {
		off := l.off
		for off < len(src) && '0' <= src[off] && src[off] <= '9' {
			off++
		}
		l.off = off
		if off == len(src) || src[off] < utf8.RuneSelf {
			break
		}
		r, size := utf8.DecodeRuneInString(src[off:])
		if !unicode.IsDigit(r) {
			break
		}
		ascii = false
		l.skip(r, size)
	}
	t.kind, t.text = tokInt, l.src[start:l.off]
	if r, _ := l.peek(); isIdentStart(r) {
		return l.errf("malformed number: digit followed by %q", r)
	}
	// Digits of other scripts are digits to the lexer but not to
	// strconv.ParseInt, which the language has always reported as a
	// range error.
	n, ok := int64(0), ascii
	for i := 0; ok && i < len(t.text); i++ {
		d := int64(t.text[i] - '0')
		ok = n <= (math.MaxInt64-d)/10
		n = n*10 + d
	}
	if !ok {
		return l.errf("integer literal %q out of range", t.text)
	}
	t.num = n
	return nil
}

// str lexes a string literal. Its value is a window into the source
// unless it holds an escape or an invalid UTF-8 byte, which decodes as
// U+FFFD.
func (l *lexer) str(t *token) error {
	l.off++ // opening quote
	start := l.off
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch {
		case c == '"':
			t.kind, t.text = tokString, l.src[start:l.off]
			l.off++
			return nil
		case c == '\n' || c == 0:
			return l.errf("unterminated string literal")
		case c == '\\':
			return l.strSlow(t, start)
		case c < utf8.RuneSelf:
			l.off++
		default:
			r, size := utf8.DecodeRuneInString(l.src[l.off:])
			if r == utf8.RuneError && size == 1 {
				return l.strSlow(t, start)
			}
			l.skip(r, size)
		}
	}
	return l.errf("unterminated string literal")
}

// strSlow finishes a string literal from the current offset, decoding
// it into a new string.
func (l *lexer) strSlow(t *token, start int) error {
	var b strings.Builder
	b.WriteString(l.src[start:l.off])
	for {
		r, size := l.peek()
		switch r {
		case 0, '\n':
			return l.errf("unterminated string literal")
		case '"':
			l.off++
			t.kind, t.text = tokString, b.String()
			return nil
		case '\\':
			l.off++
			esc, size := l.peek()
			l.skip(esc, size)
			switch esc {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			default:
				return l.errf("unknown escape \\%c", esc)
			}
		default:
			b.WriteRune(r)
			l.skip(r, size)
		}
	}
}
