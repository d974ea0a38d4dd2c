package text

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func collect(tk *Tokenizer, doc string) []string {
	var out []string
	tk.Tokens([]byte(doc), func(tok []byte) { out = append(out, string(tok)) })
	return out
}

func TestTokenizeBasic(t *testing.T) {
	tk := &Tokenizer{}
	got := collect(tk, "Hello, World! foo-bar baz42qux")
	want := []string{"hello", "world", "foo", "bar", "baz", "qux"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeEmptyAndSeparatorsOnly(t *testing.T) {
	tk := &Tokenizer{}
	if got := collect(tk, ""); len(got) != 0 {
		t.Fatalf("empty doc produced %v", got)
	}
	if got := collect(tk, " \t\n.,;:!?0123456789"); len(got) != 0 {
		t.Fatalf("separator doc produced %v", got)
	}
}

func TestTokenizeApostrophe(t *testing.T) {
	tk := &Tokenizer{}
	got := collect(tk, "don't can't rock'n'roll trailing' 'leading")
	want := []string{"don't", "can't", "rock'n'roll", "trailing", "leading"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	tk := &Tokenizer{}
	got := collect(tk, "Café Über naïve 東京 δx")
	want := []string{"café", "über", "naïve", "東京", "δx"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeInvalidUTF8DoesNotPanic(t *testing.T) {
	tk := &Tokenizer{}
	doc := []byte{'a', 'b', 0xff, 0xfe, 'c', 0xc3} // stray continuation bytes
	var out []string
	tk.Tokens(doc, func(tok []byte) { out = append(out, string(tok)) })
	if len(out) == 0 {
		t.Fatal("no tokens from partially valid input")
	}
}

func TestMinLenFilter(t *testing.T) {
	tk := &Tokenizer{MinLen: 3}
	got := collect(tk, "a an the cat stretched")
	want := []string{"the", "cat", "stretched"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMaxLenTruncates(t *testing.T) {
	tk := &Tokenizer{MaxLen: 4}
	got := collect(tk, "abcdefgh xy")
	want := []string{"abcd", "xy"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestStopwordsFiltered(t *testing.T) {
	tk := &Tokenizer{Stopwords: English()}
	got := collect(tk, "the cat and the hat")
	want := []string{"cat", "hat"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestStopwordSetCaseInsensitiveConstruction(t *testing.T) {
	s := NewStopwordSet([]string{"The", "AND"})
	if !s.Contains([]byte("the")) || !s.Contains([]byte("and")) {
		t.Fatal("uppercase stopwords not normalized")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestTokensAreLowercaseLetters(t *testing.T) {
	tk := &Tokenizer{}
	f := func(doc string) bool {
		ok := true
		tk.Tokens([]byte(doc), func(tok []byte) {
			s := string(tok)
			if strings.ToLower(s) != s {
				ok = false
			}
			if len(s) == 0 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTokenizeIdempotentOnOwnOutput(t *testing.T) {
	tk := &Tokenizer{}
	f := func(doc string) bool {
		first := collect(tk, doc)
		rejoined := strings.Join(first, " ")
		second := collect(tk, rejoined)
		return reflect.DeepEqual(first, second)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenizerReuseAcrossDocuments(t *testing.T) {
	tk := &Tokenizer{}
	a := collect(tk, "first document")
	b := collect(tk, "second")
	if !reflect.DeepEqual(a, []string{"first", "document"}) || !reflect.DeepEqual(b, []string{"second"}) {
		t.Fatalf("state leaked across documents: %v %v", a, b)
	}
}

func TestTokenizeAllocFree(t *testing.T) {
	tk := &Tokenizer{}
	doc := []byte(strings.Repeat("alpha beta gamma delta ", 100))
	// Warm the scratch buffer.
	tk.Tokens(doc, func([]byte) {})
	n := testing.AllocsPerRun(20, func() {
		tk.Tokens(doc, func([]byte) {})
	})
	if n > 0 {
		t.Fatalf("tokenization allocates %v per run, want 0", n)
	}
}

func BenchmarkTokenize(b *testing.B) {
	tk := &Tokenizer{}
	doc := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 200))
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Tokens(doc, func([]byte) {})
	}
}
