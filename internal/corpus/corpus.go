// Package corpus models document collections and synthesizes the paper's
// two Table 1 datasets.
//
// The paper evaluates on the "Mix" corpus (23,432 documents, 62.8 MB,
// 184,743 distinct words) and the "NSF Abstracts" corpus (101,483 documents,
// 310.9 MB, 267,914 distinct words). Neither corpus ships with the paper,
// so this package generates synthetic stand-ins calibrated to those three
// statistics: documents are drawn with log-normal lengths and words with a
// Zipf-Mandelbrot rank distribution, which preserves the properties the
// paper's experiments exercise — document-level parallel work distribution,
// dictionary growth under a heavy-tailed vocabulary, and extreme vector
// sparsity relative to vocabulary size. DESIGN.md records this substitution.
package corpus

import (
	"fmt"
	"math"

	"hpa/internal/pario"
	"hpa/internal/text"
)

// Spec describes a corpus to synthesize.
type Spec struct {
	// Name labels the corpus ("Mix", "NSF Abstracts").
	Name string
	// Documents is the number of documents to generate.
	Documents int
	// TargetBytes is the total size to aim for across all documents.
	TargetBytes int64
	// TargetDistinct is the number of distinct words to aim for.
	TargetDistinct int
	// ZipfS is the Zipf-Mandelbrot exponent (≈1.05 for natural language).
	ZipfS float64
	// ZipfQ is the Zipf-Mandelbrot shift (≈2.7 for natural language).
	ZipfQ float64
	// LenSigma is the sigma of the log-normal document length distribution
	// (in tokens). Zero selects the default 0.6.
	LenSigma float64
	// Seed makes generation fully deterministic.
	Seed uint64
}

// Mix returns the specification of the paper's "Mix" dataset (Table 1).
func Mix() Spec {
	return Spec{
		Name:           "Mix",
		Documents:      23432,
		TargetBytes:    65_861_059, // 62.8 MB
		TargetDistinct: 184_743,
		ZipfS:          1.05,
		ZipfQ:          2.7,
		Seed:           0x4d4958, // "MIX"
	}
}

// NSFAbstracts returns the specification of the paper's "NSF Abstracts"
// dataset (Table 1).
func NSFAbstracts() Spec {
	return Spec{
		Name:           "NSF Abstracts",
		Documents:      101_483,
		TargetBytes:    326_004_736, // 310.9 MB
		TargetDistinct: 267_914,
		ZipfS:          1.05,
		ZipfQ:          2.7,
		Seed:           0x4e5346, // "NSF"
	}
}

// Calibration returns the specification of the fixed calibration corpus:
// a 5% scale of Mix, small enough to run end-to-end in well under a second
// yet large enough that dictionary, tokenizer and sharding costs dominate
// fixed overheads. The plan optimizer's benchmarks and the acceptance
// comparison between optimized and default configurations run on it.
func Calibration() Spec {
	s := Mix().Scaled(0.05)
	s.Name = "Calibration"
	return s
}

// Scaled returns a proportionally smaller (or larger) corpus spec: document
// count and byte volume scale linearly with f, while the distinct-word
// target follows Heaps' law (distinct ∝ corpus size^beta with beta ≈ 0.55),
// matching how a real subsample of the corpus would behave. The name is
// annotated with the scale factor.
func (s Spec) Scaled(f float64) Spec {
	if f == 1 {
		return s
	}
	out := s
	out.Name = fmt.Sprintf("%s@%.3g", s.Name, f)
	out.Documents = maxInt(1, int(float64(float64(s.Documents)*f)+0.5))
	out.TargetBytes = int64(float64(s.TargetBytes) * f)
	if out.TargetBytes < 1024 {
		out.TargetBytes = 1024
	}
	out.TargetDistinct = maxInt(16, int(float64(float64(s.TargetDistinct)*math.Pow(f, 0.55))+0.5))
	return out
}

// Corpus is an in-memory document collection.
type Corpus struct {
	// Name labels the corpus.
	Name string
	// Docs holds the raw bytes of each document.
	Docs [][]byte
	// Names holds a filename-like identifier per document.
	Names []string
}

// Len returns the number of documents.
func (c *Corpus) Len() int { return len(c.Docs) }

// Bytes returns the total document bytes.
func (c *Corpus) Bytes() int64 {
	var t int64
	for _, d := range c.Docs {
		t += int64(len(d))
	}
	return t
}

// Stats summarizes a corpus in Table 1's terms.
type Stats struct {
	// Documents is the document count.
	Documents int
	// Bytes is the total byte volume.
	Bytes int64
	// DistinctWords is the number of distinct tokens across the corpus,
	// measured with the same tokenizer the TF/IDF operator uses.
	DistinctWords int
	// TotalTokens is the total token count.
	TotalTokens int64
}

// MeasureStats tokenizes the whole corpus and returns its Table 1 row.
func (c *Corpus) MeasureStats() Stats {
	st := Stats{Documents: c.Len(), Bytes: c.Bytes()}
	tk := &text.Tokenizer{}
	seen := make(map[string]struct{}, 1<<16)
	for _, d := range c.Docs {
		tk.Tokens(d, func(tok []byte) {
			st.TotalTokens++
			if _, ok := seen[string(tok)]; !ok {
				seen[string(tok)] = struct{}{}
			}
		})
	}
	st.DistinctWords = len(seen)
	return st
}

// Source wraps the corpus as a pario.Source, optionally charging the given
// disk simulator per document read.
func (c *Corpus) Source(disk *pario.DiskSim) *pario.MemSource {
	return &pario.MemSource{Names: c.Names, Docs: c.Docs, Disk: disk}
}

// ShardSources carves the corpus into the given number of contiguous
// document shards (pario.PartitionRange boundaries — the same ranges a
// workflow PartitionOp would emit), each reading through one shared source
// so all shards contend for the same simulated device. Useful for driving
// per-shard kernels directly, outside a plan.
func (c *Corpus) ShardSources(shards int, disk *pario.DiskSim) []*pario.SubSource {
	if shards < 1 {
		shards = 1
	}
	src := c.Source(disk)
	out := make([]*pario.SubSource, shards)
	for p := range out {
		out[p] = pario.Partition(src, shards, p)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
