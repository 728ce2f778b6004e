package tgd

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"orchestra/internal/datalog"
	"orchestra/internal/value"
)

// Kind classifies a token.
type Kind uint8

const (
	// EOF ends every token stream.
	EOF Kind = iota
	// Ident is an identifier: a letter or '_', then letters, digits, '_'
	// or '$'.
	Ident
	// Int is a decimal integer with an optional sign.
	Int
	// String is a string literal.
	String
	// Punct is punctuation or an operator; a character no other rule
	// reads is a one-rune Punct, left for the parser to reject.
	Punct
	// Bad is a string literal that does not decode.
	Bad
)

// Token is one token of a text, with its byte offsets in that text.
type Token struct {
	Kind Kind
	// Text is the token's source text; a String's Text is its decoded
	// value.
	Text     string
	Pos, End int
}

// String names the token for error messages.
func (t Token) String() string {
	if t.Kind == EOF {
		return "end of text"
	}
	return strconv.Quote(t.Text)
}

// Scanner reads the system's text formats — mappings, spec and diff
// lines, trust conditions and queries — one token at a time. Every
// parser reads through it, so a string literal means the same to all
// of them: "…" decodes by Go's strconv.Unquote rules, '…' is the bytes
// between the quotes, and '#' starts a comment to the end of the line
// only outside a literal. A Scanner is a value; copying it saves a
// position to look ahead from.
type Scanner struct {
	src string
	pos int
	tok Token
}

// Scan returns a scanner positioned at the first token of src.
func Scan(src string) Scanner {
	s := Scanner{src: src}
	s.advance()
	return s
}

// Peek returns the next token without consuming it.
func (s *Scanner) Peek() Token { return s.tok }

// Next consumes and returns the next token.
func (s *Scanner) Next() Token {
	t := s.tok
	s.advance()
	return t
}

// Done reports whether every token has been consumed.
func (s *Scanner) Done() bool { return s.tok.Kind == EOF }

// Accept consumes the next token if it is the identifier or
// punctuation text.
func (s *Scanner) Accept(text string) bool {
	if (s.tok.Kind == Ident || s.tok.Kind == Punct) && s.tok.Text == text {
		s.advance()
		return true
	}
	return false
}

// Expect consumes text or reports what stands in its place.
func (s *Scanner) Expect(text string) error {
	if !s.Accept(text) {
		return fmt.Errorf("expected %q, got %s", text, s.tok)
	}
	return nil
}

// Rest returns the source text from the next token on.
func (s *Scanner) Rest() string { return s.src[s.tok.Pos:] }

// advance reads the token starting at or after s.pos into s.tok.
func (s *Scanner) advance() {
	src, i := s.src, s.pos
	for i < len(src) {
		if c := src[i]; c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f' {
			i++
		} else if c == '#' {
			for i < len(src) && src[i] != '\n' {
				i++
			}
		} else {
			break
		}
	}
	start := i
	kind, text := Punct, ""
	switch {
	case i == len(src):
		kind = EOF
	case src[i] == '"':
		kind, i = Bad, len(src)
		for j := start + 1; j < len(src) && src[j] != '\n'; j++ {
			if src[j] == '\\' {
				j++
			} else if src[j] == '"' {
				i = j + 1
				if v, err := strconv.Unquote(src[start:i]); err == nil {
					kind, text = String, v
				}
				break
			}
		}
	case src[i] == '\'':
		kind, i = Bad, len(src)
		if j := strings.IndexByte(src[start+1:], '\''); j >= 0 {
			kind, i, text = String, start+j+2, src[start+1:start+1+j]
		}
	case isDigit(src[i]) || (src[i] == '-' || src[i] == '+') && i+1 < len(src) && isDigit(src[i+1]):
		kind, i = Int, i+1
		for i < len(src) && isDigit(src[i]) {
			i++
		}
	default:
		for i < len(src) {
			r, n := utf8.DecodeRuneInString(src[i:])
			if r != '_' && !unicode.IsLetter(r) && (i == start || r != '$' && !unicode.IsDigit(r)) {
				break
			}
			i += n
		}
		if i > start {
			kind = Ident
			break
		}
		_, n := utf8.DecodeRuneInString(src[i:])
		i += n
		if i < len(src) {
			switch src[start : i+1] {
			case ":-", "->", "<=", ">=", "!=", "<>", "==":
				i++
			}
		}
	}
	if kind != String {
		text = src[start:i]
	}
	s.tok, s.pos = Token{Kind: kind, Text: text, Pos: start, End: i}, i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Term reads one term: an identifier is a variable, an integer or a
// string literal a constant.
func (s *Scanner) Term() (datalog.Term, error) {
	t := s.Next()
	switch t.Kind {
	case Ident:
		return datalog.V(t.Text), nil
	case String:
		return datalog.C(value.String(t.Text)), nil
	case Int:
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return datalog.Term{}, fmt.Errorf("bad integer %q: %w", t.Text, err)
		}
		return datalog.C(value.Int(n)), nil
	case Bad:
		return datalog.Term{}, fmt.Errorf("bad string literal %s", t.Text)
	}
	return datalog.Term{}, fmt.Errorf("expected a term, got %s", t)
}

// Atom reads "R(t1, …, tn)".
func (s *Scanner) Atom() (datalog.Atom, error) {
	name := s.Next()
	if name.Kind != Ident {
		return datalog.Atom{}, fmt.Errorf("bad relation name %s", name)
	}
	a := datalog.Atom{Pred: name.Text}
	err := s.Expect("(")
	if err == nil && !s.Accept(")") {
		if a.Args, err = s.terms(); err == nil {
			err = s.Expect(")")
		}
	}
	if err != nil {
		return datalog.Atom{}, fmt.Errorf("atom %s: %w", name.Text, err)
	}
	return a, nil
}

// terms reads a comma-separated list of at least one term.
func (s *Scanner) terms() ([]datalog.Term, error) {
	// The commas before the next ')' byte size the list. A literal
	// holding either byte only misjudges the capacity.
	rest := s.Rest()
	if end := strings.IndexByte(rest, ')'); end >= 0 {
		rest = rest[:end]
	}
	out := make([]datalog.Term, 0, strings.Count(rest, ",")+1)
	for {
		t, err := s.Term()
		if err != nil {
			return nil, err
		}
		if out = append(out, t); !s.Accept(",") {
			return out, nil
		}
	}
}

// Tuple reads a comma-separated list of at least one constant.
func (s *Scanner) Tuple() (value.Tuple, error) {
	terms, err := s.terms()
	if err != nil {
		return nil, err
	}
	t := make(value.Tuple, len(terms))
	for i, term := range terms {
		if term.Kind != datalog.TermConst {
			return nil, fmt.Errorf("tuple must be ground, got variable %q", term.Var)
		}
		t[i] = term.Const
	}
	return t, nil
}

// AcceptConj consumes a conjunction between atoms: ',', '^', "and" or
// "AND".
func (s *Scanner) AcceptConj() bool {
	return s.Accept(",") || s.Accept("^") || s.Accept("and") || s.Accept("AND")
}

// Atoms reads a conjunction "R(a,b), S(c)" of at least one atom.
func (s *Scanner) Atoms() ([]datalog.Atom, error) {
	var out []datalog.Atom
	for {
		a, err := s.Atom()
		if err != nil {
			return nil, err
		}
		out = append(out, a)
		if !s.AcceptConj() {
			return out, nil
		}
	}
}

// ExpectDone reports a token left over after a complete parse.
func (s *Scanner) ExpectDone() error {
	if !s.Done() {
		return fmt.Errorf("unexpected %s at offset %d", s.tok, s.tok.Pos)
	}
	return nil
}
