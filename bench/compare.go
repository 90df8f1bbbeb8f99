package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// Verdicts of one workload × metric row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares old and new runs of one metric by the benchmark's own
// rules: an exact metric must repeat to 1e-9; any other may worsen by its
// bound; and when the run-to-run spread of either side exceeds the bound
// the row is unresolved unless every new run beats every old one.
func judge(d metricDef, old, new []float64) string {
	_, om, _ := quartiles(old)
	_, nm, _ := quartiles(new)
	sign := 1.0 // positive change = worse
	if d.Better == "higher" {
		sign = -1
	}
	if d.Exact {
		all := append(append([]float64(nil), old...), new...)
		for _, v := range all {
			if math.Abs(v-all[0]) > 1e-9*math.Max(1, math.Abs(all[0])) {
				if sign*(nm-om) > 0 {
					return verdictWorse
				}
				return verdictBetter
			}
		}
		return verdictSame
	}
	if om == 0 {
		if nm == 0 {
			return verdictSame
		}
		return verdictUnresolved
	}
	change := sign * (nm - om) / math.Abs(om)
	if math.Max(spread(old), spread(new)) > d.Bound {
		if allBeat(d, old, new) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch {
	case change > d.Bound:
		return verdictWorse
	case change < -d.Bound:
		return verdictBetter
	}
	return verdictSame
}

// allBeat reports whether every new value is better than every old one.
func allBeat(d metricDef, old, new []float64) bool {
	if len(old) == 0 || len(new) == 0 {
		return false
	}
	o, n := sortedCopy(old), sortedCopy(new)
	if d.Better == "higher" {
		return n[0] > o[len(o)-1]
	}
	return n[len(n)-1] < o[0]
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

func loadDocs(paths []string) ([]*document, error) {
	var docs []*document
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		d := &document{}
		if err := json.Unmarshal(b, d); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// gather collects one metric of one workload over a side's documents.
// Layer metrics are compared only when exact: those are the virtual-time
// behaviour numbers, the rest have no bound.
func gather(docs []*document, workload string, d metricDef, layer bool) []float64 {
	var s []float64
	for _, doc := range docs {
		wd := doc.Workloads[workload]
		if wd == nil {
			continue
		}
		m := wd.Metrics
		if layer {
			m = wd.Layers
		}
		if v, ok := m[d.Name]; ok {
			s = append(s, v.Value)
		}
	}
	return s
}

func failRatio(docs []*document, workload string) float64 {
	att, failed := 0, 0
	for _, doc := range docs {
		if wd := doc.Workloads[workload]; wd != nil {
			att += wd.Attempted
			failed += wd.Failed
		}
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}

// compareDocs prints one row per workload × metric and returns the exit
// code: 1 when any row is worse or a workload's fail ratio rose.
func compareDocs(out io.Writer, oldPaths, newPaths []string) int {
	old, err := loadDocs(oldPaths)
	if err == nil {
		var n []*document
		n, err = loadDocs(newPaths)
		if err == nil {
			return printComparison(out, old, n)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: -compare: %v\n", err)
	return 2
}

func printComparison(out io.Writer, old, new []*document) int {
	names := map[string]bool{}
	for _, d := range append(append([]*document(nil), old...), new...) {
		for w := range d.Workloads {
			names[w] = true
		}
	}
	var order []string
	for _, w := range workloads { // table order, then anything unknown
		if names[w.Name] {
			order = append(order, w.Name)
			delete(names, w.Name)
		}
	}
	for w := range names {
		order = append(order, w)
	}
	sort.Strings(order[len(order)-len(names):])

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told q1/median/q3 (n)\tnew q1/median/q3 (n)\tchange\tbound\tverdict")
	status := 0
	row := func(w string, d metricDef, layer bool) {
		o, n := gather(old, w, d, layer), gather(new, w, d, layer)
		if len(o) == 0 || len(n) == 0 {
			return
		}
		if layer && allZero(o) && allZero(n) {
			return // a layer this workload does not visit
		}
		v := judge(d, o, n)
		if v == verdictWorse {
			status = 1
		}
		o1, o2, o3 := quartiles(o)
		n1, n2, n3 := quartiles(n)
		change := "n/a"
		if o2 != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(n2-o2)/math.Abs(o2))
		}
		bound := fmt.Sprintf("%.0f%%", 100*d.Bound)
		if d.Exact {
			bound = "exact"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g/%.4g/%.4g (%d)\t%.4g/%.4g/%.4g (%d)\t%s\t%s\t%s\n",
			w, d.Name, d.Unit, o1, o2, o3, len(o), n1, n2, n3, len(n), change, bound, v)
	}
	for _, w := range order {
		for _, d := range endToEnd {
			row(w, d, false)
		}
		for _, d := range perLayer {
			if d.Exact {
				row(w, d, true)
			}
		}
		of, nf := failRatio(old, w), failRatio(new, w)
		v := verdictSame
		if nf > of {
			v, status = verdictWorse, 1
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\tratio\t%.4g\t%.4g\t\t0\t%s\n", w, of, nf, v)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: -compare: %v\n", err)
		return 2
	}
	return status
}
