package main

import "testing"

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "core.react_vs", Better: "lower", Exact: true}
	for _, c := range []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"within the bound", lower, []float64{100, 101, 99}, []float64{104, 105, 103}, verdictSame},
		{"worse beyond the bound", lower, []float64{100, 101, 99}, []float64{115, 116, 114}, verdictWorse},
		{"better beyond the bound", lower, []float64{100, 101, 99}, []float64{80, 81, 79}, verdictBetter},
		{"higher is better: a drop is worse", higher, []float64{100, 101, 99}, []float64{85, 86, 84}, verdictWorse},
		{"higher is better: a rise is better", higher, []float64{100, 101, 99}, []float64{120, 121, 119}, verdictBetter},
		{"noisy sides cannot be resolved", lower, []float64{100, 130, 70}, []float64{104, 135, 75}, verdictUnresolved},
		{"noisy, but every new run beats every old one", lower, []float64{100, 130, 70}, []float64{50, 60, 40}, verdictBetter},
		{"one run a side has no spread", lower, []float64{100}, []float64{105}, verdictSame},
		{"exact and equal", exact, []float64{1.5, 1.5}, []float64{1.5, 1.5}, verdictSame},
		{"exact: any difference is a change", exact, []float64{1.5, 1.5}, []float64{1.5, 1.5000001}, verdictWorse},
		{"exact: a smaller reaction time is better", exact, []float64{1.5}, []float64{1.2}, verdictBetter},
	} {
		if got := judge(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
