package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// verdict judges one metric of one workload: base and next are the values of
// the untraced runs on each side. A change counts only beyond the metric's
// bound, and only when neither side's own spread exceeds that bound.
func verdict(d metricDef, base, next []float64) (ratioToBase float64, v string) {
	b, n := median(base), median(next)
	if b == 0 {
		return 0, "unresolved"
	}
	ratioToBase = n / b
	worse := ratioToBase - 1 // share by which next is worse than base
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case max(spread(base), spread(next)) > d.Bound:
		return ratioToBase, "unresolved"
	case worse > d.Bound:
		return ratioToBase, "worse"
	case worse < -d.Bound:
		return ratioToBase, "better"
	}
	return ratioToBase, "same"
}

// compareFiles prints one row per workload and end-to-end metric and returns
// an error if any metric got worse or more operations failed.
func compareFiles(w io.Writer, basePath, nextPath string) error {
	base, err := readRunFile(basePath)
	if err != nil {
		return err
	}
	next, err := readRunFile(nextPath)
	if err != nil {
		return err
	}
	byName := map[string]workloadRuns{}
	for _, wr := range next.Workloads {
		byName[wr.Workload] = wr
	}
	bad := 0
	fmt.Fprintf(w, "%-20s %-16s %14s %14s %8s  %s\n", "workload", "metric", "base", "new", "new/base", "verdict")
	for _, bw := range base.Workloads {
		nw, ok := byName[bw.Workload]
		if !ok {
			fmt.Fprintf(w, "%-20s missing from %s\n", bw.Workload, nextPath)
			bad++
			continue
		}
		for _, d := range endToEnd {
			r, v := verdict(d, bw.EndToEnd[d.Name], nw.EndToEnd[d.Name])
			fmt.Fprintf(w, "%-20s %-16s %14.4f %14.4f %8.3f  %s\n", bw.Workload, d.Name,
				median(bw.EndToEnd[d.Name]), median(nw.EndToEnd[d.Name]), r, v)
			if v == "worse" {
				bad++
			}
		}
		bf := ratio(float64(bw.Failed), float64(bw.Attempted))
		nf := ratio(float64(nw.Failed), float64(nw.Attempted))
		v := "same"
		if nf > bf {
			v = "worse"
			bad++
		} else if nf < bf {
			v = "better"
		}
		fmt.Fprintf(w, "%-20s %-16s %14.6f %14.6f %8s  %s\n", bw.Workload, "failed_share", bf, nf, "", v)
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons are worse", bad)
	}
	return nil
}
