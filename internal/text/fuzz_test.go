package text

import (
	"bytes"
	"testing"
	"unicode"
	"unicode/utf8"

	"hpa/internal/dict"
)

// referenceTokens is the tokenizer as it was before the hash moved into its
// byte loop — scan, then filter, no hashing — kept as the reference
// FuzzTokenizerHash compares TokensHash against.
func referenceTokens(t *Tokenizer, doc []byte, emit func([]byte)) {
	var buf []byte
	flush := func() {
		tok := buf
		buf = nil
		if len(tok) == 0 || (t.MinLen > 0 && len(tok) < t.MinLen) {
			return
		}
		if t.MaxLen > 0 && len(tok) > t.MaxLen {
			tok = tok[:t.MaxLen]
		}
		if t.Stopwords != nil && t.Stopwords.Contains(tok) {
			return
		}
		if t.Stem {
			tok = PorterStem(tok)
		}
		emit(tok)
	}
	for i := 0; i < len(doc); {
		c := doc[i]
		switch {
		case c >= 'a' && c <= 'z':
			buf = append(buf, c)
			i++
		case c >= 'A' && c <= 'Z':
			buf = append(buf, c+('a'-'A'))
			i++
		case c == '\'' && len(buf) > 0 && i+1 < len(doc) && isASCIILetter(doc[i+1]):
			buf = append(buf, c)
			i++
		case c < utf8.RuneSelf:
			flush()
			i++
		default:
			r, size := utf8.DecodeRune(doc[i:])
			if unicode.IsLetter(r) {
				buf = utf8.AppendRune(buf, unicode.ToLower(r))
			} else {
				flush()
			}
			i += size
		}
	}
	flush()
}

// FuzzTokenizerHash: for arbitrary bytes under every combination of the
// tokenizer's options, TokensHash emits the reference token sequence, every
// hash it hands out is the dictionary's hash of that token — also after
// truncation and stemming rewrite it — and Tokens is the same sequence.
func FuzzTokenizerHash(f *testing.F) {
	f.Add([]byte("Hello, World! don't rock'n'roll baz42qux"))
	f.Add([]byte("Café Über naïve 東京 δx ǅ İstanbul"))
	f.Add([]byte("the running runners ran relational conditionally of and to"))
	f.Add([]byte{'a', 'b', 0xff, 0xfe, 'c', 0xc3, 'D', '\'', 0xe6, 0x97})
	f.Add([]byte("pneumonoultramicroscopicsilicovolcanoconiosis x yy zzz"))
	f.Fuzz(func(t *testing.T, doc []byte) {
		for mask := 0; mask < 16; mask++ {
			tk := &Tokenizer{}
			if mask&1 != 0 {
				tk.MinLen = 3
			}
			if mask&2 != 0 {
				tk.MaxLen = 5
			}
			if mask&4 != 0 {
				tk.Stopwords = English()
			}
			tk.Stem = mask&8 != 0
			var want [][]byte
			referenceTokens(tk, doc, func(tok []byte) { want = append(want, bytes.Clone(tok)) })
			n := 0
			tk.TokensHash(doc, func(tok []byte, hash uint64) {
				if n >= len(want) || !bytes.Equal(tok, want[n]) {
					t.Fatalf("options %04b: token %d is %q, reference has %q", mask, n, tok, want[n:min(n+1, len(want))])
				}
				if hash != dict.HashBytes(tok) {
					t.Fatalf("options %04b: token %q carries hash %#x, dictionary hash is %#x", mask, tok, hash, dict.HashBytes(tok))
				}
				n++
			})
			if n != len(want) {
				t.Fatalf("options %04b: %d tokens, reference has %d", mask, n, len(want))
			}
			n = 0
			tk.Tokens(doc, func(tok []byte) {
				if n >= len(want) || !bytes.Equal(tok, want[n]) {
					t.Fatalf("options %04b: Tokens token %d is %q", mask, n, tok)
				}
				n++
			})
			if n != len(want) {
				t.Fatalf("options %04b: Tokens emitted %d tokens, reference has %d", mask, n, len(want))
			}
		}
	})
}
