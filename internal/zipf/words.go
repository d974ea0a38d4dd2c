package zipf

// WordTable maps term ranks to deterministic synthetic word strings. Words
// are pronounceable-ish consonant/vowel alternations so that byte volumes
// and tokenizer behavior resemble English text rather than opaque IDs, with
// hot ranks assigned shorter words (as in natural language, where frequent
// words are short — this keeps Table 1 byte-volume calibration realistic).
type WordTable struct {
	words []string
}

var (
	consonants = []byte("bcdfghjklmnpqrstvwz")
	vowels     = []byte("aeiou")
)

// NewWordTable synthesizes v distinct words. Rank 0 receives the shortest
// word; lengths grow with rank roughly logarithmically.
func NewWordTable(v int) *WordTable {
	w := &WordTable{words: make([]string, v)}
	var buf []byte
	for i := 0; i < v; i++ {
		w.words[i] = string(synthesize(uint64(i), buf[:0]))
	}
	return w
}

// synthesize builds the word for rank i by encoding i in a mixed-radix
// consonant-vowel alternation. Distinctness: the encoding is a bijection
// between integers and CV strings, so distinct ranks yield distinct words.
func synthesize(i uint64, buf []byte) []byte {
	n := i
	for k := 0; ; k++ {
		if k%2 == 0 {
			buf = append(buf, consonants[n%uint64(len(consonants))])
			n /= uint64(len(consonants))
		} else {
			buf = append(buf, vowels[n%uint64(len(vowels))])
			n /= uint64(len(vowels))
		}
		if n == 0 && k >= 1 {
			break
		}
	}
	return buf
}

// Word returns the word for 0-based rank i.
func (w *WordTable) Word(i int) string { return w.words[i] }

// Len returns the number of words.
func (w *WordTable) Len() int { return len(w.words) }

// AvgLen returns the mean word length in bytes, weighted by the sampler's
// rank probabilities, used to convert byte-volume targets into token counts.
func (w *WordTable) AvgLen(z *Sampler) float64 {
	n := len(w.words)
	if z.V() < n {
		n = z.V()
	}
	total := 0.0
	for i := 0; i < n; i++ {
		total += float64(z.P(i) * float64(len(w.words[i])))
	}
	return total
}
