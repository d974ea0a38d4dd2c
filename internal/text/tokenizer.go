// Package text implements the text-processing front end of the TF/IDF
// operator: a zero-allocation word tokenizer and an optional stopword
// filter. The paper characterizes TF/IDF as "mainly concerned with data
// input, tokenization and hash table operations"; this package is the
// tokenization third of that.
package text

import (
	"unicode"
	"unicode/utf8"

	"hpa/internal/dict"
)

// Tokenizer splits document bytes into lowercase word tokens. A token is a
// maximal run of letters (plus intra-word apostrophes); digits, punctuation
// and whitespace are separators. The tokenizer owns a scratch buffer so that
// emitting a token does not allocate: the callback receives a byte slice
// valid only for the duration of the call.
//
// A Tokenizer is not safe for concurrent use; each parallel strand uses its
// own (they are cheap and recycled across documents).
type Tokenizer struct {
	// MinLen drops tokens shorter than this many bytes (0 keeps all).
	MinLen int
	// MaxLen truncates tokens longer than this many bytes (0 = no limit);
	// pathological inputs cannot then blow up dictionary key storage.
	MaxLen int
	// Stopwords drops tokens present in the set, if non-nil.
	Stopwords *StopwordSet
	// Stem applies Porter stemming to each token after the filters,
	// shrinking the vocabulary (a standard TF/IDF preprocessing option,
	// as in WEKA's StringToWordVector).
	Stem bool

	buf []byte
}

// Tokens invokes emit for every token in doc, in order. The slice passed to
// emit is reused between calls; callers must copy it if they retain it
// (dictionary RefBytes does exactly that, only on first insertion).
func (t *Tokenizer) Tokens(doc []byte, emit func(token []byte)) {
	t.TokensHash(doc, func(tok []byte, _ uint64) { emit(tok) })
}

// TokensHash is Tokens handing emit, beside each token, the token's
// dictionary hash (dict.HashBytes), computed in the same pass over the
// document's bytes that builds the token — so counting a token into a hash
// dictionary (dict.Map.RefHash) never walks its bytes a second time.
func (t *Tokenizer) TokensHash(doc []byte, emit func(token []byte, hash uint64)) {
	buf, h := t.buf[:0], dict.HashInit
	flush := func() {
		if len(buf) > 0 {
			t.emitToken(buf, h, emit)
			buf, h = buf[:0], dict.HashInit
		}
	}
	for i := 0; i < len(doc); {
		c := doc[i]
		switch {
		case c >= 'a' && c <= 'z':
			buf, h = append(buf, c), dict.HashStep(h, c)
			i++
		case c >= 'A' && c <= 'Z':
			c += 'a' - 'A'
			buf, h = append(buf, c), dict.HashStep(h, c)
			i++
		case c == '\'' && len(buf) > 0 && i+1 < len(doc) && isASCIILetter(doc[i+1]):
			// Intra-word apostrophe: keep "don't" as one token.
			buf, h = append(buf, c), dict.HashStep(h, c)
			i++
		case c < utf8.RuneSelf:
			flush()
			i++
		default:
			r, size := utf8.DecodeRune(doc[i:])
			if unicode.IsLetter(r) {
				n := len(buf)
				buf = utf8.AppendRune(buf, unicode.ToLower(r))
				for _, c := range buf[n:] {
					h = dict.HashStep(h, c)
				}
			} else {
				flush()
			}
			i += size
		}
	}
	flush()
	t.buf = buf[:0]
}

// emitToken applies the filters to one scanned token and emits what is
// left; a filter that rewrites the token (truncation, stemming) re-hashes
// it.
func (t *Tokenizer) emitToken(tok []byte, hash uint64, emit func([]byte, uint64)) {
	if t.MinLen > 0 && len(tok) < t.MinLen {
		return
	}
	rewritten := false
	if t.MaxLen > 0 && len(tok) > t.MaxLen {
		tok, rewritten = tok[:t.MaxLen], true
	}
	if t.Stopwords != nil && t.Stopwords.Contains(tok) {
		return
	}
	if t.Stem {
		tok, rewritten = PorterStem(tok), true
	}
	if rewritten {
		hash = dict.HashBytes(tok)
	}
	emit(tok, hash)
}

func isASCIILetter(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// StopwordSet is an immutable set of lowercase words.
type StopwordSet struct {
	m map[string]struct{}
}

// NewStopwordSet builds a set from the given words (lowercased).
func NewStopwordSet(words []string) *StopwordSet {
	s := &StopwordSet{m: make(map[string]struct{}, len(words))}
	for _, w := range words {
		s.m[lower(w)] = struct{}{}
	}
	return s
}

// Contains reports membership of an already-lowercased token.
func (s *StopwordSet) Contains(tok []byte) bool {
	_, ok := s.m[string(tok)] // no allocation: map lookup special case
	return ok
}

// Len returns the set size.
func (s *StopwordSet) Len() int { return len(s.m) }

func lower(w string) string {
	for i := 0; i < len(w); i++ {
		if w[i] >= 'A' && w[i] <= 'Z' {
			b := []byte(w)
			for j := range b {
				if b[j] >= 'A' && b[j] <= 'Z' {
					b[j] += 'a' - 'A'
				}
			}
			return string(b)
		}
	}
	return w
}

// English returns a small English stopword list comparable to WEKA's
// default Rainbow-derived list's most frequent entries.
func English() *StopwordSet {
	return NewStopwordSet([]string{
		"a", "about", "above", "after", "again", "against", "all", "am",
		"an", "and", "any", "are", "as", "at", "be", "because", "been",
		"before", "being", "below", "between", "both", "but", "by", "can",
		"did", "do", "does", "doing", "down", "during", "each", "few",
		"for", "from", "further", "had", "has", "have", "having", "he",
		"her", "here", "hers", "him", "his", "how", "i", "if", "in",
		"into", "is", "it", "its", "just", "me", "more", "most", "my",
		"no", "nor", "not", "now", "of", "off", "on", "once", "only",
		"or", "other", "our", "ours", "out", "over", "own", "same", "she",
		"so", "some", "such", "than", "that", "the", "their", "theirs",
		"them", "then", "there", "these", "they", "this", "those",
		"through", "to", "too", "under", "until", "up", "very", "was",
		"we", "were", "what", "when", "where", "which", "while", "who",
		"whom", "why", "will", "with", "you", "your", "yours",
	})
}
