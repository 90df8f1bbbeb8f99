package expt

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// segMean averages the series values whose timestamps fall in [lo, hi).
func segMean(t *testing.T, fig *FigResult, name string, lo, hi time.Duration) float64 {
	t.Helper()
	s, ok := fig.Rec.Get(name)
	if !ok {
		t.Fatalf("series %q missing", name)
	}
	var sum float64
	n := 0
	for _, p := range s.Points {
		if p.T >= lo && p.T < hi {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		t.Fatalf("no points in [%v,%v)", lo, hi)
	}
	return sum / float64(n)
}

func TestFigure3a(t *testing.T) {
	fig, err := Figure3a()
	if err != nil {
		t.Fatal(err)
	}
	// Skip a settling second around each step.
	for _, seg := range []struct {
		lo, hi time.Duration
		want   float64
	}{
		{1 * time.Second, 20 * time.Second, 0.8},
		{21 * time.Second, 50 * time.Second, 0.4},
		{51 * time.Second, 80 * time.Second, 0.6},
	} {
		got := segMean(t, fig, "achieved-share", seg.lo, seg.hi)
		if math.Abs(got-seg.want) > 0.03 {
			t.Errorf("share in [%v,%v) = %.3f, want %.2f", seg.lo, seg.hi, got, seg.want)
		}
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil || buf.Len() == 0 {
		t.Fatal("render failed")
	}
}

func cell(t *testing.T, fig *FigResult, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(fig.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell %d,%d %q: %v", row, col, fig.Rows[row][col], err)
	}
	return v
}

func TestFigure3b(t *testing.T) {
	fig, err := Figure3b()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 10 {
		t.Fatalf("%d rows", len(fig.Rows))
	}
	for i := range fig.Rows {
		measured, expected := cell(t, fig, i, 1), cell(t, fig, i, 2)
		if math.Abs(measured-expected)/expected > 0.05 {
			t.Errorf("share %s: measured %.2f vs expected %.2f", fig.Rows[i][0], measured, expected)
		}
	}
	// Measured time decreases monotonically with share.
	for i := 1; i < len(fig.Rows); i++ {
		if cell(t, fig, i, 1) >= cell(t, fig, i-1, 1) {
			t.Errorf("row %d: time not decreasing with share", i)
		}
	}
}

func TestFigure4a(t *testing.T) {
	fig, err := Figure4a()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 2 {
		t.Fatalf("%d rows", len(fig.Rows))
	}
	for i := range fig.Rows {
		if errPct := cell(t, fig, i, 3); errPct > 5 {
			t.Errorf("%s: emulation error %.2f%%", fig.Rows[i][0], errPct)
		}
	}
	// The slower machine takes longer.
	if cell(t, fig, 1, 1) <= cell(t, fig, 0, 1) {
		t.Error("PPro 200 should be slower than PII 333")
	}
}

func TestFigure4b(t *testing.T) {
	fig, err := Figure4b()
	if err != nil {
		t.Fatal(err)
	}
	for i := range fig.Rows {
		if errPct := cell(t, fig, i, 3); errPct > 10 {
			t.Errorf("%s: emulation error %.2f%% (paper saw up to 8%%)", fig.Rows[i][0], errPct)
		}
	}
	// Waiting time is CPU-independent: the PPro-200 run must take far less
	// than CPU-share scaling would predict (450/200 = 2.25× the PII-450
	// time). Verify it is under 2× the PII-333 run.
	if cell(t, fig, 1, 1) > 2*cell(t, fig, 0, 1) {
		t.Error("transmission times scale like pure CPU, waiting time not modeled")
	}
}

func TestFigure5(t *testing.T) {
	if testing.Short() {
		t.Skip("slow virtual-time experiment; run without -short for the full gate")
	}
	fa, err := Figure5a()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Figure5b()
	if err != nil {
		t.Fatal(err)
	}
	for i := range fa.Rows {
		// 5a: larger fovea → shorter total transmission.
		f80, f320 := cell(t, fa, i, 1), cell(t, fa, i, 3)
		if f320 >= f80 {
			t.Errorf("5a share %s: fovea320 %.2f !< fovea80 %.2f", fa.Rows[i][0], f320, f80)
		}
		// 5b: larger fovea → longer response.
		r80, r320 := cell(t, fb, i, 1), cell(t, fb, i, 3)
		if r320 <= r80 {
			t.Errorf("5b share %s: fovea320 %.2f !> fovea80 %.2f", fb.Rows[i][0], r320, r80)
		}
	}
	// Both decrease as CPU share grows (first vs last row).
	last := len(fa.Rows) - 1
	if cell(t, fa, last, 1) >= cell(t, fa, 0, 1) {
		t.Error("5a: transmission time not decreasing with share")
	}
	if cell(t, fb, last, 3) >= cell(t, fb, 0, 3) {
		t.Error("5b: response time not decreasing with share")
	}
	// The Experiment 3 decision points: fovea 320 crosses the 1 s response
	// bound between 40% and 90% share.
	rowFor := func(share string) int {
		for i := range fb.Rows {
			if fb.Rows[i][0] == share {
				return i
			}
		}
		t.Fatalf("share %s not in figure", share)
		return -1
	}
	if v := cell(t, fb, rowFor("0.9"), 3); v >= 1.0 {
		t.Errorf("fovea320 at 0.9: response %.2f, want < 1", v)
	}
	if v := cell(t, fb, rowFor("0.4"), 3); v <= 1.0 {
		t.Errorf("fovea320 at 0.4: response %.2f, want > 1", v)
	}
	if v := cell(t, fb, rowFor("0.4"), 1); v >= 1.0 {
		t.Errorf("fovea80 at 0.4: response %.2f, want < 1", v)
	}
}

func TestFigure6a(t *testing.T) {
	if testing.Short() {
		t.Skip("slow virtual-time experiment; run without -short for the full gate")
	}
	fig, err := Figure6a()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != len(bwAxis) {
		t.Fatalf("%d rows", len(fig.Rows))
	}
	first, last := 0, len(fig.Rows)-1
	// B wins at the lowest bandwidth, A at the highest: the crossover.
	if cell(t, fig, first, 2) >= cell(t, fig, first, 1) {
		t.Errorf("at %s B/s: bzw %.2f !< lzw %.2f",
			fig.Rows[first][0], cell(t, fig, first, 2), cell(t, fig, first, 1))
	}
	if cell(t, fig, last, 1) >= cell(t, fig, last, 2) {
		t.Errorf("at %s B/s: lzw %.2f !< bzw %.2f",
			fig.Rows[last][0], cell(t, fig, last, 1), cell(t, fig, last, 2))
	}
	// Both curves decrease (weakly) with bandwidth.
	for i := 1; i < len(fig.Rows); i++ {
		if cell(t, fig, i, 1) > cell(t, fig, i-1, 1)*1.02 {
			t.Errorf("lzw not decreasing at row %d", i)
		}
	}
}

func TestFigure6b(t *testing.T) {
	if testing.Short() {
		t.Skip("slow virtual-time experiment; run without -short for the full gate")
	}
	fig, err := Figure6b()
	if err != nil {
		t.Fatal(err)
	}
	for i := range fig.Rows {
		l2, l3, l4 := cell(t, fig, i, 1), cell(t, fig, i, 2), cell(t, fig, i, 3)
		if !(l2 < l3 && l3 < l4) {
			t.Errorf("share %s: levels not ordered: %.2f %.2f %.2f", fig.Rows[i][0], l2, l3, l4)
		}
	}
	// The Experiment 2 decision points: at 40% share level 4 misses the
	// 10 s deadline while level 3 meets it; at 90% level 4 meets it.
	rowFor := func(share string) int {
		for i := range fig.Rows {
			if fig.Rows[i][0] == share {
				return i
			}
		}
		t.Fatalf("share %s missing", share)
		return -1
	}
	if v := cell(t, fig, rowFor("0.9"), 3); v >= 10 {
		t.Errorf("level4 at 0.9: %.2f, want < 10", v)
	}
	if v := cell(t, fig, rowFor("0.4"), 3); v <= 10 {
		t.Errorf("level4 at 0.4: %.2f, want > 10", v)
	}
	if v := cell(t, fig, rowFor("0.4"), 2); v >= 10 {
		t.Errorf("level3 at 0.4: %.2f, want < 10", v)
	}
}

func TestExperiment1(t *testing.T) {
	if testing.Short() {
		t.Skip("slow virtual-time experiment; run without -short for the full gate")
	}
	e, err := Experiment1()
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Adaptive.Stats) != NumImages {
		t.Fatalf("adaptive downloaded %d images", len(e.Adaptive.Stats))
	}
	if e.Adaptive.Switches < 1 {
		t.Fatal("no adaptation happened")
	}
	if e.Adaptive.Final["c"].S != "bzw" {
		t.Fatalf("final codec %s, want bzw", e.Adaptive.Final.Key())
	}
	// The paper's key claim: adaptation beats both static choices.
	if e.Adaptive.Total >= e.StaticA.Total {
		t.Errorf("adaptive %v !< lzw-only %v", e.Adaptive.Total, e.StaticA.Total)
	}
	if e.Adaptive.Total >= e.StaticB.Total {
		t.Errorf("adaptive %v !< bzw-only %v", e.Adaptive.Total, e.StaticB.Total)
	}
	// Before the drop the adaptive run tracks the LZW curve.
	if first := e.Adaptive.Stats[0]; first.Codec != "lzw" {
		t.Errorf("initial codec %s", first.Codec)
	}
	// The switch happens shortly after the drop, mid-run (not at start).
	for _, ev := range e.Adaptive.Events {
		if ev.Kind == "switch" {
			if ev.At < exp1DropAt || ev.At > exp1DropAt+10*time.Second {
				t.Errorf("switch at %v, drop at %v", ev.At, exp1DropAt)
			}
		}
	}
	var buf bytes.Buffer
	if err := e.Fig.Render(&buf); err != nil || buf.Len() == 0 {
		t.Fatal("render failed")
	}
}

func TestExperiment2(t *testing.T) {
	if testing.Short() {
		t.Skip("slow virtual-time experiment; run without -short for the full gate")
	}
	e, err := Experiment2()
	if err != nil {
		t.Fatal(err)
	}
	if e.Adaptive.Final["l"].I != 3 {
		t.Fatalf("final level %s, want 3", e.Adaptive.Final.Key())
	}
	if e.Adaptive.Stats[0].Level != 4 {
		t.Fatalf("initial level %d, want 4", e.Adaptive.Stats[0].Level)
	}
	// Static level 4 violates the deadline after the drop; the adaptive
	// run may violate at most during the transition image.
	vA := violations(e.Adaptive, 10)
	v4 := violations(e.StaticA, 10)
	if vA > 1 {
		t.Errorf("adaptive violated the deadline %d times", vA)
	}
	if v4 <= vA {
		t.Errorf("level4-only violations %d !> adaptive %d", v4, vA)
	}
	// The adaptive run delivers more high-resolution images than the
	// always-level-3 baseline.
	count4 := 0
	for _, st := range e.Adaptive.Stats {
		if st.Level == 4 {
			count4++
		}
	}
	if count4 == 0 {
		t.Error("adaptive never delivered level 4")
	}
	for _, st := range e.StaticB.Stats {
		if st.Level != 3 {
			t.Fatalf("baseline leaked level %d", st.Level)
		}
	}
}

func TestExperiment3(t *testing.T) {
	if testing.Short() {
		t.Skip("slow virtual-time experiment; run without -short for the full gate")
	}
	e, err := Experiment3()
	if err != nil {
		t.Fatal(err)
	}
	if e.Adaptive.Final["dR"].I != 80 {
		t.Fatalf("final fovea %s, want 80", e.Adaptive.Final.Key())
	}
	if e.Adaptive.Stats[0].DR != 320 {
		t.Fatalf("initial fovea %d, want 320", e.Adaptive.Stats[0].DR)
	}
	// After the switch, adaptive responses return below the 1 s bound.
	var lastResp float64
	for _, st := range e.Adaptive.Stats {
		lastResp = st.AvgResponse.Seconds()
	}
	if lastResp >= 1.0 {
		t.Errorf("final adaptive response %.2f s, want < 1", lastResp)
	}
	// The fovea-320 baseline violates the bound after the drop.
	var worst320 float64
	for _, st := range e.StaticA.Stats {
		if st.Start > exp3DropAt+5*time.Second && st.AvgResponse.Seconds() > worst320 {
			worst320 = st.AvgResponse.Seconds()
		}
	}
	if worst320 <= 1.0 {
		t.Errorf("fovea320 baseline response %.2f s after drop, want > 1", worst320)
	}
	// Figure 7(d): while both satisfy responsiveness before the drop, the
	// adaptive run's early images (fovea 320) complete faster than the
	// fovea-80 baseline's.
	fig7d := Figure7d(e)
	var buf bytes.Buffer
	if err := fig7d.Render(&buf); err != nil || buf.Len() == 0 {
		t.Fatal("render 7d failed")
	}
	if e.Adaptive.Stats[0].TransmitTime >= e.StaticB.Stats[0].TransmitTime {
		t.Errorf("first image: adaptive(320) %v !< fovea80 %v",
			e.Adaptive.Stats[0].TransmitTime, e.StaticB.Stats[0].TransmitTime)
	}
}

// The distributed-monitoring deployment must reach the same adaptation
// outcome as the single-agent shortcut.
func TestExperiment1Distributed(t *testing.T) {
	if testing.Short() {
		t.Skip("slow virtual-time experiment; run without -short for the full gate")
	}
	e, err := Experiment1Distributed()
	if err != nil {
		t.Fatal(err)
	}
	if e.Adaptive.Switches < 1 {
		t.Fatal("distributed monitoring never adapted")
	}
	if e.Adaptive.Final["c"].S != "bzw" {
		t.Fatalf("final codec %s", e.Adaptive.Final.Key())
	}
	// Compare against the single-agent run: outcomes within 15%.
	single, err := Experiment1()
	if err != nil {
		t.Fatal(err)
	}
	ratio := e.Adaptive.Total.Seconds() / single.Adaptive.Total.Seconds()
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("distributed total %v vs single %v (ratio %.2f)",
			e.Adaptive.Total, single.Adaptive.Total, ratio)
	}
}

// oneAfterAnother is runWorlds without the goroutines.
func oneAfterAnother(adaptive, staticA, staticB worldRun) (*ExperimentResult, error) {
	var e ExperimentResult
	var err error
	for _, w := range []struct {
		run  worldRun
		into *RunResult
	}{{adaptive, &e.Adaptive}, {staticA, &e.StaticA}, {staticB, &e.StaticB}} {
		if *w.into, err = w.run(); err != nil {
			return nil, err
		}
	}
	return &e, nil
}

// An experiment's three worlds run concurrently; nothing a world computes
// may depend on that. Each experiment must return exactly what running the
// same three closures one after another returns: events, per-image stats,
// totals, and the figure as rendered.
func TestExperimentsEqualSequentialRuns(t *testing.T) {
	for _, x := range []struct {
		name       string
		concurrent func() (*ExperimentResult, error)
		with       func(worldsRunner) (*ExperimentResult, error)
	}{
		{"Experiment1", Experiment1, experiment1},
		{"Experiment2", Experiment2, experiment2},
		{"Experiment3", Experiment3, experiment3},
	} {
		got, err := x.concurrent()
		if err != nil {
			t.Fatal(err)
		}
		want, err := x.with(oneAfterAnother)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			name      string
			got, want RunResult
		}{
			{"adaptive", got.Adaptive, want.Adaptive},
			{"static A", got.StaticA, want.StaticA},
			{"static B", got.StaticB, want.StaticB},
		} {
			if len(r.got.Stats) != NumImages {
				t.Errorf("%s %s: %d images, want %d", x.name, r.name, len(r.got.Stats), NumImages)
			}
			if !reflect.DeepEqual(r.got, r.want) {
				t.Errorf("%s %s: concurrent run differs from the sequential one:\n%+v\n%+v", x.name, r.name, r.got, r.want)
			}
		}
		var gotFig, wantFig strings.Builder
		if err := got.Fig.Render(&gotFig); err != nil {
			t.Fatal(err)
		}
		if err := want.Fig.Render(&wantFig); err != nil {
			t.Fatal(err)
		}
		if gotFig.String() != wantFig.String() || gotFig.Len() == 0 {
			t.Errorf("%s: figure differs:\n%s\n%s", x.name, gotFig.String(), wantFig.String())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: results differ outside the runs and the rendered figure", x.name)
		}
	}
}
