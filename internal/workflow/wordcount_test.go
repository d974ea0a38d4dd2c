package workflow

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hpa/internal/dict"
	"hpa/internal/pario"
	"hpa/internal/text"
)

func wcSource(docs ...string) *pario.MemSource {
	m := &pario.MemSource{}
	for _, d := range docs {
		m.Docs = append(m.Docs, []byte(d))
	}
	return m
}

// runWordCount runs the plan scan -> wordcount and returns the counts.
func runWordCount(t *testing.T, ctx *Context, src pario.Source, op *WordCountOp) *WordCounts {
	t.Helper()
	outs, err := NewPlan().
		Add("scan", &SourceOp{Src: src}).
		Add("wordcount", op).
		Connect("scan", "wordcount").
		Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return outs["wordcount"].(*WordCounts)
}

func TestWordCountHandComputed(t *testing.T) {
	wc := runWordCount(t, testCtx(t, 2), wcSource(
		"the cat sat on the mat",
		"the dog",
	), &WordCountOp{DictKind: dict.Tree})
	if wc.TotalTokens != 8 {
		t.Fatalf("total tokens %d, want 8", wc.TotalTokens)
	}
	if wc.Words[0] != "the" || wc.Counts[0] != 3 {
		t.Fatalf("top word %q:%d, want the:3", wc.Words[0], wc.Counts[0])
	}
	if wc.Count("cat") != 1 || wc.Count("absent") != 0 {
		t.Fatalf("counts wrong: cat=%d", wc.Count("cat"))
	}
	if got := wc.Top(2); len(got) != 2 || got[0] != "the" {
		t.Fatalf("Top(2) = %v", got)
	}
}

func TestWordCountMatchesBruteForceAcrossKindsAndWorkers(t *testing.T) {
	c := testCorpus()
	// Brute force with a plain map.
	want := map[string]uint64{}
	tk := &text.Tokenizer{}
	var wantTotal uint64
	for _, d := range c.Docs {
		tk.Tokens(d, func(tok []byte) {
			want[string(tok)]++
			wantTotal++
		})
	}
	for _, kind := range []dict.Kind{dict.Tree, dict.Hash, dict.NodeTree} {
		for _, workers := range []int{1, 4} {
			wc := runWordCount(t, testCtx(t, workers), c.Source(nil), &WordCountOp{DictKind: kind})
			if wc.TotalTokens != wantTotal {
				t.Fatalf("%v/%d: total %d want %d", kind, workers, wc.TotalTokens, wantTotal)
			}
			if len(wc.Words) != len(want) {
				t.Fatalf("%v/%d: %d distinct, want %d", kind, workers, len(wc.Words), len(want))
			}
			for i, w := range wc.Words {
				if wc.Counts[i] != want[w] {
					t.Fatalf("%v/%d: %q=%d want %d", kind, workers, w, wc.Counts[i], want[w])
				}
			}
		}
	}
}

func TestWordCountSortedDescending(t *testing.T) {
	wc := runWordCount(t, testCtx(t, 2), testCorpus().Source(nil), &WordCountOp{DictKind: dict.Hash})
	for i := 1; i < len(wc.Counts); i++ {
		if wc.Counts[i] > wc.Counts[i-1] {
			t.Fatalf("counts not descending at %d", i)
		}
		if wc.Counts[i] == wc.Counts[i-1] && wc.Words[i] < wc.Words[i-1] {
			t.Fatalf("tie not word-ordered at %d", i)
		}
	}
}

func TestWordCountPipelineWithOutput(t *testing.T) {
	ctx := testCtx(t, 2)
	p := NewPlan().
		Add("scan", &SourceOp{Src: testCorpus().Source(nil)}).
		Add("wordcount", &WordCountOp{DictKind: dict.Tree, Stopwords: text.English()}).
		Add("output", &WriteWordCounts{Limit: 10}).
		Connect("scan", "wordcount").
		Connect("wordcount", "output")
	if _, err := p.Run(ctx); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(ctx.ScratchDir, "wordcounts.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("%d lines, want 10 (limit)", len(lines))
	}
	if ctx.Breakdown.Get(PhaseOutput) == 0 || ctx.Breakdown.Get("input+wc") == 0 {
		t.Fatalf("phases missing: %v", ctx.Breakdown)
	}
}

func TestWordCountTypeError(t *testing.T) {
	ctx := testCtx(t, 1)
	ints := &fnOp{name: "ints", out: reflect.TypeOf(0),
		fn: func(*Context, []Value) (Value, error) { return 42, nil }}
	p := NewPlan().Add("ints", ints).Add("wordcount", &WordCountOp{}).Connect("ints", "wordcount")
	if _, err := p.Run(ctx); err == nil || !strings.Contains(err.Error(), "wordcount") {
		t.Fatalf("accepted int input: %v", err)
	}
	if _, err := (&WriteWordCounts{}).Run(ctx, "x"); err == nil {
		t.Fatal("accepted string input")
	}
}
