package corpus

import (
	"math"

	"hpa/internal/par"
	"hpa/internal/zipf"
)

// Generate synthesizes a corpus matching the spec. Generation is
// deterministic in the spec (including Seed) and independent of the pool's
// worker count: every document derives its own RNG stream from
// (Seed, docID). Pass nil to generate sequentially.
func Generate(spec Spec, pool *par.Pool) *Corpus {
	if spec.Documents <= 0 {
		return &Corpus{Name: spec.Name}
	}
	sigma := spec.LenSigma
	if sigma == 0 {
		sigma = 0.6
	}

	sampler, totalTokens := calibrate(spec)
	words := zipf.NewWordTable(sampler.V())

	// Draw per-document token counts from a log-normal and rescale so they
	// sum to the calibrated total.
	lens := docLengths(spec, sigma, totalTokens)

	c := &Corpus{
		Name:  spec.Name,
		Docs:  make([][]byte, spec.Documents),
		Names: make([]string, spec.Documents),
	}
	gen := func(i int) {
		rng := zipf.NewRNG(spec.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
		c.Docs[i] = renderDoc(rng, sampler, words, lens[i])
		c.Names[i] = docName(spec.Name, i)
	}
	if pool == nil {
		for i := 0; i < spec.Documents; i++ {
			gen(i)
		}
	} else {
		pool.For(0, spec.Documents, 0, gen)
	}
	return c
}

// calibrate jointly solves for the vocabulary size and total token count so
// that the expected byte volume and distinct-word count hit the spec's
// Table 1 targets. Vocabulary size is iterated via fixed point on the
// expected-distinct curve; token count follows from the frequency-weighted
// mean word length.
func calibrate(spec Spec) (*zipf.Sampler, int64) {
	v := spec.TargetDistinct
	if v < 16 {
		v = 16
	}
	var sampler *zipf.Sampler
	var totalTokens int64
	for iter := 0; iter < 6; iter++ {
		sampler = zipf.NewSampler(v, spec.ZipfS, spec.ZipfQ)
		words := zipf.NewWordTable(v)
		// Bytes per token: word plus separator, plus sentence overhead
		// (". " every sentence, newlines) amortized at ~0.1 bytes/token.
		perToken := words.AvgLen(sampler) + 1 + 0.1
		totalTokens = int64(float64(spec.TargetBytes) / perToken)
		if totalTokens < int64(spec.Documents) {
			totalTokens = int64(spec.Documents)
		}
		expect := sampler.ExpectedDistinct(int(totalTokens))
		ratio := float64(spec.TargetDistinct) / expect
		if ratio > 0.99 && ratio < 1.01 {
			break
		}
		nv := int(float64(v) * ratio)
		if nv < 16 {
			nv = 16
		}
		// Dampen oscillation.
		v = (v + nv) / 2
	}
	return sampler, totalTokens
}

// docLengths draws log-normal document lengths summing (approximately) to
// total tokens.
func docLengths(spec Spec, sigma float64, total int64) []int {
	mean := float64(total) / float64(spec.Documents)
	mu := math.Log(mean) - float64(sigma*sigma/2)
	rng := zipf.NewRNG(spec.Seed ^ 0x646f636c656e) // "doclen"
	lens := make([]int, spec.Documents)
	var sum int64
	for i := range lens {
		l := int(rng.LogNormal(mu, sigma) + 0.5)
		if l < 5 {
			l = 5
		}
		lens[i] = l
		sum += int64(l)
	}
	// Rescale to the calibrated total so byte volume stays on target.
	scale := float64(total) / float64(sum)
	for i := range lens {
		l := int(float64(float64(lens[i])*scale) + 0.5)
		if l < 5 {
			l = 5
		}
		lens[i] = l
	}
	return lens
}

// renderDoc produces the bytes of one document: Zipf-sampled words joined
// by spaces, grouped into sentences with a capitalized first word and a
// trailing period, wrapped into lines of a few sentences. The layout
// exercises the tokenizer's case folding and separator handling the way
// real prose does.
func renderDoc(rng *zipf.RNG, sampler *zipf.Sampler, words *zipf.WordTable, tokens int) []byte {
	buf := make([]byte, 0, tokens*7)
	sentenceLen := 0
	target := 8 + rng.Intn(9) // sentence of 8..16 words
	for t := 0; t < tokens; t++ {
		w := words.Word(sampler.Sample(rng))
		if sentenceLen == 0 {
			// Capitalize the first word of a sentence.
			buf = append(buf, w[0]-'a'+'A')
			buf = append(buf, w[1:]...)
		} else {
			buf = append(buf, ' ')
			buf = append(buf, w...)
		}
		sentenceLen++
		if sentenceLen >= target || t == tokens-1 {
			buf = append(buf, '.')
			if rng.Intn(3) == 0 {
				buf = append(buf, '\n')
			} else if t != tokens-1 {
				buf = append(buf, ' ')
			}
			sentenceLen = 0
			target = 8 + rng.Intn(9)
		}
	}
	buf = append(buf, '\n')
	return buf
}

func docName(corpusName string, i int) string {
	return sanitize(corpusName) + "/" + pad7(i) + ".txt"
}

func sanitize(s string) string {
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			b = append(b, c)
		case c >= 'A' && c <= 'Z':
			b = append(b, c+'a'-'A')
		case c == ' ', c == '/', c == '@':
			b = append(b, '_')
		default:
			b = append(b, c)
		}
	}
	return string(b)
}

func pad7(i int) string {
	var d [7]byte
	for k := 6; k >= 0; k-- {
		d[k] = byte('0' + i%10)
		i /= 10
	}
	return string(d[:])
}
