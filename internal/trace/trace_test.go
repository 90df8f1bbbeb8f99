package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestSeriesStats(t *testing.T) {
	s := &Series{Name: "x"}
	if s.Len() != 0 {
		t.Fatal("Len on empty")
	}
	s.Add(time.Second, 1)
	s.Add(2*time.Second, 3)
	s.Add(3*time.Second, 2)
	if s.Len() != 3 {
		t.Fatalf("Len %v", s.Len())
	}
	if last := s.Points[2]; last.V != 2 || last.T != 3*time.Second {
		t.Fatalf("last %+v", last)
	}
}

func TestRecorderSeriesIdentity(t *testing.T) {
	r := NewRecorder()
	a := r.Series("a", "s")
	b := r.Series("a", "s")
	if a != b {
		t.Fatal("Series not idempotent")
	}
	if _, ok := r.Get("a"); !ok {
		t.Fatal("Get")
	}
	if _, ok := r.Get("zz"); ok {
		t.Fatal("phantom series")
	}
	r.Series("b", "")
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names %v", names)
	}
}

func TestWriteTable(t *testing.T) {
	r := NewRecorder()
	a := r.Series("adaptive", "s")
	a.Add(time.Second, 1.5)
	a.Add(2*time.Second, 2.5)
	b := r.Series("static", "s")
	b.Add(time.Second, 9)
	var buf bytes.Buffer
	if err := r.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Fatalf("table:\n%s", out)
	}
	if !strings.Contains(lines[0], "adaptive") || !strings.Contains(lines[0], "static") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(lines[1], "1.5") || !strings.Contains(lines[1], "9") {
		t.Fatalf("row %q", lines[1])
	}
	// Ragged row: static has no second sample, so its two columns are
	// blank but present.
	if got := len(strings.Split(lines[2], "\t")); got != 4 {
		t.Fatalf("ragged row %q has %d fields, want 4", lines[2], got)
	}
	// Empty recorder writes nothing.
	var empty bytes.Buffer
	if err := NewRecorder().WriteTable(&empty); err != nil || empty.Len() != 0 {
		t.Fatal("empty recorder")
	}
}
