package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compareMain compares two result sets — each a directory of the
// reports runs write under --out/results — metric by metric and
// workload by workload. For each pair it prints both sides' quartiles
// and whether the medians differ by more than the metric's bound. Two
// sets from the same commit are its false-positive check: it exits 1
// when any bounded metric differs, 0 otherwise.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare DIR_A DIR_B")
		return 2
	}
	a, err := loadReports(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	b, err := loadReports(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	rows := compareSets(a, b)
	fmt.Fprintf(w, "%-12s %-28s %-13s %29s %29s %8s  %s\n", "workload", "metric", "unit",
		"A q1/median/q3 (runs)", "B q1/median/q3 (runs)", "change", "verdict")
	status := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-28s %-13s %s %s %+7.1f%%  %s\n", r.workload, r.metric, r.unit,
			side(r.a), side(r.b), 100*r.change, r.verdict)
		if r.differs {
			status = 1
		}
	}
	return status
}

func side(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%9.4g %9.4g %9.4g (%2d)", q1, med, q3, len(xs))
}

// loadReports reads every report file in dir.
func loadReports(dir string) ([]report, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no reports", dir)
	}
	var out []report
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	return out, nil
}

type compareRow struct {
	workload, metric, unit string
	a, b                   []float64
	change                 float64 // relative change of the median, B vs A
	differs                bool
	verdict                string
}

// compareSets pairs every (workload, metric) both sets measured.
// End-to-end metrics come from untraced runs, per-layer ones from
// traced runs.
func compareSets(a, b []report) []compareRow {
	type key struct{ workload, metric string }
	collect := func(rs []report) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range rs {
			for name, v := range r.Metrics {
				_, e2e := findE2E(name)
				if e2e == (r.Trace == 0) {
					k := key{r.Workload, name}
					m[k] = append(m[k], v.Value)
				}
			}
		}
		return m
	}
	ma, mb := collect(a), collect(b)
	var rows []compareRow
	for k, xa := range ma {
		xb, ok := mb[k]
		if !ok {
			continue
		}
		def, _ := findDef(k.metric)
		r := compareRow{workload: k.workload, metric: k.metric, unit: def.Unit, a: xa, b: xb}
		r.change, r.differs, r.verdict = judge(def, median(xa), median(xb))
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].workload != rows[j].workload {
			return rows[i].workload < rows[j].workload
		}
		return rows[i].metric < rows[j].metric
	})
	return rows
}

func findE2E(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// judge says whether median mb differs from ma by more than the
// metric's bound, and in which direction. Unbounded metrics are only
// described.
func judge(def metricDef, ma, mb float64) (change float64, differs bool, verdict string) {
	switch {
	case ma != 0:
		change = (mb - ma) / math.Abs(ma)
	case mb != 0:
		change = math.Inf(1)
	}
	if def.Bound == 0 {
		return change, false, "no bound"
	}
	if math.Abs(change) <= def.Bound {
		return change, false, fmt.Sprintf("within ±%g", def.Bound)
	}
	better := (change < 0) == (def.Better == "lower")
	if better {
		return change, true, fmt.Sprintf("BETTER beyond ±%g", def.Bound)
	}
	return change, true, fmt.Sprintf("WORSE beyond ±%g", def.Bound)
}
