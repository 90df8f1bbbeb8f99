package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTime(t *testing.T) {
	parent := span{Name: "p", Start: 0, End: 100, Parent: -1}
	kid := func(a, b int64) span { return span{Name: "c", Start: a, End: b, Parent: 0} }
	for _, c := range []struct {
		name string
		kids []span
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint children", []span{kid(10, 30), kid(50, 60)}, 70},
		{"overlapping children are counted once", []span{kid(10, 30), kid(20, 50)}, 60},
		{"a child inside another adds nothing", []span{kid(10, 50), kid(20, 30)}, 60},
		{"children are clipped to the parent", []span{kid(-20, 10), kid(90, 150)}, 80},
		{"a child outside the parent covers nothing", []span{kid(120, 150)}, 100},
		{"unsorted input", []span{kid(50, 60), kid(10, 30)}, 70},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
	// A shadow replay runs after its parent returned: its children count
	// wherever they ran, still without double-counting overlap.
	shadow := []span{kid(200, 230), kid(220, 250), kid(300, 310)}
	if got := shadowSelfTime(parent, shadow); got != 100-60 {
		t.Errorf("shadowSelfTime = %d, want 40", got)
	}
	if got := selfTime(parent, shadow); got != 100 {
		t.Errorf("selfTime with children outside the parent = %d, want 100", got)
	}
}

func TestRecorderSelfTimesAndFile(t *testing.T) {
	rec := newRecorder()
	// hand-built spans: two ops, each a parent and two children
	rec.spans = []span{
		{Name: "round", Start: 0, End: 100, Parent: -1, Op: 0},
		{Name: "a", Start: 10, End: 40, Parent: 0, Op: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0, Op: 0},
		{Name: "round", Start: 200, End: 260, Parent: -1, Op: 1},
		{Name: "a", Start: 210, End: 220, Parent: 3, Op: 1},
	}
	got := rec.selfTimes("round", selfTime)
	if len(got) != 2 || got[0] != 50 || got[1] != 50 {
		t.Errorf("selfTimes = %v, want [50 50]", got)
	}
	if m := rec.medianNS("a"); m != 20 {
		t.Errorf("median duration of a = %v, want 20", m)
	}
	var nilRec *recorder
	ran := false
	nilRec.time("x", -1, 0, func() { ran = true })
	if !ran {
		t.Error("a nil recorder must still run the function")
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := rec.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if s != rec.spans[n] {
			t.Errorf("line %d = %+v, want %+v", n, s, rec.spans[n])
		}
	}
	if n != len(rec.spans) {
		t.Errorf("%d lines, want %d", n, len(rec.spans))
	}
}
