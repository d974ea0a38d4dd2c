package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"hpa/internal/corpus"
)

// topicalSpec sizes the benchmark-owned clustered corpus. The repo's Zipf
// generator draws every document from one distribution, so K-Means on it
// converges in two iterations and measures nothing; here every document
// mixes one topic's vocabulary with a shared background, which gives the
// clustering workloads real seeding rounds, iterations and prunable bounds.
type topicalSpec struct {
	Topics     int // clusters planted
	TopicWords int // vocabulary private to each topic
	Background int // vocabulary shared by all topics
	Docs       int
	DocTokens  int // mean tokens per document (uniform in ±20 %)
	// TopicShare is the probability a token comes from the document's own
	// topic; the rest is background. Low enough that topics overlap and
	// assignments keep moving for the whole iteration budget.
	TopicShare float64
	// Structure seeds everything that shapes the K-Means trajectory: each
	// document's topic, length and word ranks. The run's -seed only picks
	// how the vocabulary is spelled (see generateTopical).
	Structure uint64
}

// clusterSpec is the input of cluster-local and cluster-rpc. Structure 1 is
// one of two in the first sixty on which K-Means at K=16 runs its 15 seeding
// rounds and all 20 iterations, with 23 % of the document-iterations pruned;
// most structures converge in 7 to 15.
var clusterSpec = topicalSpec{
	Topics: 16, TopicWords: 300, Background: 2000,
	Docs: 3000, DocTokens: 100, TopicShare: 0.12, Structure: 1,
}

// topicalWord spells word id as five lowercase letters: the tokenizer keeps
// letters only, so ids cannot be written as digits.
func topicalWord(id int) string {
	var b [5]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = byte('a' + id%26)
		id /= 26
	}
	return string(b[:])
}

// generateTopical builds the corpus deterministically: document d belongs
// to topic d mod Topics, and word ranks inside the topic and the background
// vocabularies follow the same Zipf–Mandelbrot shape the repo's corpora use.
//
// How many iterations K-Means needs, and how much of them the bounds prune,
// swings with the data: over 20 fully seed-drawn corpora of this shape it
// converged in 5 to 14 iterations and the distance evaluations had an
// interquartile range of 25 % of their median, before any timing noise —
// nothing a driver comparing medians over seeds can see a regression
// through. So the documents' structure is drawn from spec.Structure, a
// constant, and seed draws the permutation that spells word ids: every seed
// gives different bytes, term ids, dictionary shapes and coordinate orders,
// and the same clustering problem.
func generateTopical(spec topicalSpec, seed uint64) *corpus.Corpus {
	words := spec.Topics*spec.TopicWords + spec.Background
	spell := rand.New(rand.NewPCG(seed, 0x7370656c6c)).Perm(words) // "spell"
	rng := rand.New(rand.NewPCG(spec.Structure, 0x746f706963))     // "topic"
	topicRank := rand.NewZipf(rng, 1.05, 2.7, uint64(spec.TopicWords-1))
	backRank := rand.NewZipf(rng, 1.05, 2.7, uint64(spec.Background-1))
	c := &corpus.Corpus{
		Name:  "topical",
		Docs:  make([][]byte, spec.Docs),
		Names: make([]string, spec.Docs),
	}
	var buf bytes.Buffer
	for d := range c.Docs {
		topic := d % spec.Topics
		n := spec.DocTokens*4/5 + rng.IntN(spec.DocTokens*2/5+1)
		buf.Reset()
		for t := 0; t < n; t++ {
			id := spec.Topics*spec.TopicWords + int(backRank.Uint64())
			if rng.Float64() < spec.TopicShare {
				id = topic*spec.TopicWords + int(topicRank.Uint64())
			}
			if t > 0 {
				buf.WriteByte(' ')
			}
			buf.WriteString(topicalWord(spell[id]))
		}
		c.Docs[d] = bytes.Clone(buf.Bytes())
		c.Names[d] = fmt.Sprintf("topical/%07d.txt", d)
	}
	return c
}

// query is one replayed search request.
type query struct {
	Text string
	Long bool
}

const (
	queryCount     = 512
	shortQueryLen  = 8  // consecutive corpus words
	longQueryLen   = 60 // one in ten: the vectorizer-heavy class
	longQueryEvery = 10
)

// pickQueries draws queryCount queries deterministically from seed: each is
// a run of consecutive words of one corpus document, so it hits real
// postings lists; every tenth is long.
func pickQueries(docs [][]byte, seed uint64) []query {
	rng := rand.New(rand.NewPCG(seed, 0x7175657279)) // "query"
	out := make([]query, 0, queryCount)
	for len(out) < queryCount {
		long := len(out)%longQueryEvery == longQueryEvery-1
		want := shortQueryLen
		if long {
			want = longQueryLen
		}
		words := bytes.Fields(docs[rng.IntN(len(docs))])
		if len(words) < want {
			continue
		}
		at := rng.IntN(len(words) - want + 1)
		out = append(out, query{Text: string(bytes.Join(words[at:at+want], []byte(" "))), Long: long})
	}
	return out
}
