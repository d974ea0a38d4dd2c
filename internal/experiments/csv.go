package experiments

import (
	"fmt"

	"hpa/internal/metrics"
)

// This file gives every experiment result a CSV form so the regenerated
// figures can be fed straight into plotting tools
// (`hpa-report -csv DIR` writes one file per experiment).

// CSV renders the Table 1 data.
func (r *Table1Result) CSV() string {
	t := metrics.NewTable("input", "documents", "bytes", "distinct_words",
		"target_documents", "target_bytes", "target_distinct")
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			fmt.Sprintf("%d", row.Measured.Documents),
			fmt.Sprintf("%d", row.Measured.Bytes),
			fmt.Sprintf("%d", row.Measured.DistinctWords),
			fmt.Sprintf("%d", row.Spec.Documents),
			fmt.Sprintf("%d", row.Spec.TargetBytes),
			fmt.Sprintf("%d", row.Spec.TargetDistinct))
	}
	return t.CSV()
}

// CSV renders the speedup series (Figures 1 and 2): one row per thread
// count, seconds and speedup per dataset.
func (r *SpeedupResult) CSV() string {
	t := metrics.NewTable(speedupCSVHeader(r)...)
	for _, n := range r.Threads {
		row := []string{fmt.Sprintf("%d", n)}
		for _, s := range r.Series {
			d, ok := s.Time(n)
			if !ok {
				row = append(row, "", "")
				continue
			}
			sp, _ := s.Speedup(n)
			row = append(row, fmt.Sprintf("%.6f", d.Seconds()), fmt.Sprintf("%.4f", sp))
		}
		t.AddRow(row...)
	}
	return t.CSV()
}

func speedupCSVHeader(r *SpeedupResult) []string {
	header := []string{"threads"}
	for _, s := range r.Series {
		header = append(header, s.Name()+"_seconds", s.Name()+"_speedup")
	}
	return header
}

// CSV renders the Figure 3 per-phase durations: one row per
// (threads, variant).
func (r *WorkflowResult) CSV() string {
	return workflowCSV(r.Threads, map[string]map[int]*metrics.Breakdown{
		"discrete": r.Discrete, "merged": r.Merged,
	}, []string{"discrete", "merged"})
}

// CSV renders the Figure 4 per-phase durations: one row per
// (threads, dictionary variant).
func (r *Fig4Result) CSV() string {
	return workflowCSV(r.Threads, map[string]map[int]*metrics.Breakdown{
		"u-map": r.Hash.Breakdowns, "map": r.Node.Breakdowns, "map-arena": r.Arena.Breakdowns,
	}, []string{"u-map", "map", "map-arena"})
}

func workflowCSV(threads []int, variants map[string]map[int]*metrics.Breakdown, order []string) string {
	header := []string{"threads", "variant"}
	for _, ph := range workflowPhases {
		header = append(header, ph+"_seconds")
	}
	header = append(header, "total_seconds")
	t := metrics.NewTable(header...)
	for _, n := range threads {
		for _, variant := range order {
			bd, ok := variants[variant][n]
			if !ok {
				continue
			}
			row := []string{fmt.Sprintf("%d", n), variant}
			for _, ph := range workflowPhases {
				row = append(row, fmt.Sprintf("%.6f", bd.Get(ph).Seconds()))
			}
			row = append(row, fmt.Sprintf("%.6f", bd.Total().Seconds()))
			t.AddRow(row...)
		}
	}
	return t.CSV()
}

// CSV renders the WEKA comparison.
func (r *WekaResult) CSV() string {
	t := metrics.NewTable("input", "documents", "dim",
		"optimized_seconds", "baseline_seconds", "baseline_docs", "speedup", "same_clustering")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset,
			fmt.Sprintf("%d", row.Documents),
			fmt.Sprintf("%d", row.Dim),
			fmt.Sprintf("%.6f", row.Optimized.Seconds()),
			fmt.Sprintf("%.6f", row.Baseline.Seconds()),
			fmt.Sprintf("%d", row.BaselineDocs),
			fmt.Sprintf("%.3f", row.Speedup),
			fmt.Sprintf("%v", row.InertiaMatch))
	}
	return t.CSV()
}

// CSV renders the ablation data: one section per ablation, separated by a
// blank line (each section is itself valid CSV).
func (r *AblationResult) CSV() string {
	t1 := metrics.NewTable("dictionary", "input_wc_seconds", "transform_seconds", "footprint_bytes")
	for _, k := range []string{"map-arena", "map", "u-map"} {
		t1.AddRow(k,
			fmt.Sprintf("%.6f", r.DictPhase1[k].Seconds()),
			fmt.Sprintf("%.6f", r.DictTransform[k].Seconds()),
			fmt.Sprintf("%d", r.DictFootprint[k]))
	}
	t2 := metrics.NewTable("loop_shards", "speedup_16t")
	for _, n := range ablationShards {
		t2.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.4f", r.ShardSpeedup[n]))
	}
	t3 := metrics.NewTable("doc_presize", "input_wc_seconds", "footprint_bytes")
	for _, p := range []int{0, 256, 1024, 4096} {
		t3.AddRow(fmt.Sprintf("%d", p),
			fmt.Sprintf("%.6f", r.PresizeTime[p].Seconds()),
			fmt.Sprintf("%d", r.PresizeMem[p]))
	}
	t4 := metrics.NewTable("preprocessing", "vocabulary", "input_wc_seconds")
	for _, k := range []string{"raw", "stemmed"} {
		t4.AddRow(k, fmt.Sprintf("%d", r.StemVocab[k]), fmt.Sprintf("%.6f", r.StemTime[k].Seconds()))
	}
	return t1.CSV() + "\n" + t2.CSV() + "\n" + t3.CSV() + "\n" + t4.CSV()
}
