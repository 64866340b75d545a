package agentlang

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// lexAll drains the lexer for direct lexer-level tests.
func lexAll(t *testing.T, src string) []token {
	t.Helper()
	l := newLexer(src)
	var out []token
	for {
		var tok token
		err := l.next(&tok)
		if err != nil {
			t.Fatalf("lex %q: %v", src, err)
		}
		out = append(out, tok)
		if tok.kind == tokEOF {
			return out
		}
	}
}

func TestLexerTokenKinds(t *testing.T) {
	toks := lexAll(t, `proc x ( ) { } [ ] , ; : = + - * / % == != < <= > >= && || ! 42 "s" true false null while`)
	want := []tokenKind{
		tokProc, tokIdent, tokLParen, tokRParen, tokLBrace, tokRBrace,
		tokLBracket, tokRBracket, tokComma, tokSemicolon, tokColon,
		tokAssign, tokPlus, tokMinus, tokStar, tokSlash, tokPercent,
		tokEq, tokNe, tokLt, tokLe, tokGt, tokGe, tokAndAnd, tokOrOr,
		tokBang, tokInt, tokString, tokTrue, tokFalse, tokNull, tokWhile,
		tokEOF,
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i := range want {
		if toks[i].kind != want[i] {
			t.Errorf("token %d = %v, want %v", i, toks[i].kind, want[i])
		}
	}
}

func TestLexerPositions(t *testing.T) {
	toks := lexAll(t, "a\n  bb\n\tccc")
	if toks[0].line != 1 || toks[0].col != 1 {
		t.Errorf("a at %d:%d", toks[0].line, toks[0].col)
	}
	if toks[1].line != 2 || toks[1].col != 3 {
		t.Errorf("bb at %d:%d", toks[1].line, toks[1].col)
	}
	if toks[2].line != 3 || toks[2].col != 2 {
		t.Errorf("ccc at %d:%d", toks[2].line, toks[2].col)
	}
}

func TestLexerCommentsToEOF(t *testing.T) {
	toks := lexAll(t, "x # trailing comment with no newline")
	if len(toks) != 2 || toks[0].kind != tokIdent {
		t.Errorf("tokens = %v", toks)
	}
}

func TestLexerUnicodeIdentifiers(t *testing.T) {
	toks := lexAll(t, "päron = 1")
	if toks[0].kind != tokIdent || toks[0].text != "päron" {
		t.Errorf("unicode identifier: %+v", toks[0])
	}
}

func TestLexerIntBounds(t *testing.T) {
	toks := lexAll(t, "9223372036854775807")
	if toks[0].num != 9223372036854775807 {
		t.Errorf("max int64 lexed as %d", toks[0].num)
	}
	l := newLexer("9223372036854775808")
	if err := l.next(&token{}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("overflow: %v", err)
	}
}

func TestLexerErrorKinds(t *testing.T) {
	bad := map[string]string{
		"@":        "unexpected character",
		"|x":       "unexpected character",
		"&x":       "unexpected character",
		`"ab`:      "unterminated",
		"\"a\nb\"": "unterminated",
		`"a\z"`:    "unknown escape",
		"1x":       "malformed number",
	}
	for src, want := range bad {
		l := newLexer(src)
		var err error
		for err == nil {
			var tok token
			err = l.next(&tok)
			if err == nil && tok.kind == tokEOF {
				break
			}
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("lex %q: err = %v, want %q", src, err, want)
		}
	}
}

func TestTokenKindStrings(t *testing.T) {
	// Every kind has a readable name (used in parse error messages).
	for k := tokEOF; k <= tokNull; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "token(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if tokenKind(999).String() != "token(999)" {
		t.Error("unknown kind fallback")
	}
}

// FuzzLexPositions: for any source, every token the lexer produces
// starts at the line:col a reader counting newlines and runes (an
// invalid byte as one) finds before it, and its line starts where the
// last newline before it ends.
func FuzzLexPositions(f *testing.F) {
	for _, c := range readGolden(f) {
		f.Add(c.Src)
	}
	f.Add(itineraryProgram)
	f.Add(unicodeProgram)
	f.Add("a\r\n  ä = \"\xff\" # ž\x00 b")
	f.Add("x = 1٣ # 名\n\t𝒳 = \"a\\tb\"")
	f.Fuzz(func(t *testing.T, src string) {
		l := newLexer(src)
		for {
			l.skipSpaceAndComments()
			start := l.off
			var tok token
			err := l.next(&tok)
			if err != nil {
				return
			}
			lineStart := strings.LastIndexByte(src[:start], '\n') + 1
			line := 1 + strings.Count(src[:start], "\n")
			col := 1 + utf8.RuneCountInString(src[lineStart:start])
			if tok.line != line || tok.col != col || tok.lineStart != lineStart {
				t.Fatalf("%s at offset %d: lexed at %d:%d (line from %d), counted %d:%d (line from %d)",
					tok.kind, start, tok.line, tok.col, tok.lineStart, line, col, lineStart)
			}
			if tok.kind == tokEOF {
				return
			}
			if l.off <= start {
				t.Fatalf("%s at offset %d: lexer did not advance", tok.kind, start)
			}
		}
	})
}
