package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the recorder's epoch; Parent is the index of the span that caused this one
// (-1 for a root); spans of one round or decision share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. The traced run has a
// single client, so it is not synchronized.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index; end closes it.
func (r *recorder) begin(name string, parent, op int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.epoch)) }

// time records fn as one span; a nil recorder just runs fn.
func (r *recorder) time(name string, parent, op int, fn func()) {
	if r == nil {
		fn()
		return
	}
	id := r.begin(name, parent, op)
	fn()
	r.end(id)
}

// called reports whether a span's name is name or a class of it
// ("round.hit" is a "round").
func (s span) called(name string) bool {
	return s.Name == name || (len(s.Name) > len(name) && s.Name[len(name)] == '.' && s.Name[:len(name)] == name)
}

// durations returns the duration in nanoseconds of every span called name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.called(name) {
			out = append(out, s.dur())
		}
	}
	return out
}

// medianNS is the median duration of the spans called name, 0 when none.
func (r *recorder) medianNS(name string) float64 { return median(r.durations(name)) }

// selfTimes applies self (selfTime or shadowSelfTime) to every span called
// name and its direct children.
func (r *recorder) selfTimes(name string, self func(span, []span) int64) []float64 {
	kids := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []float64
	for i, s := range r.spans {
		if s.called(name) {
			out = append(out, float64(self(s, kids[i])))
		}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to [lo, hi]: overlapping children are counted once.
func covered(children []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// selfTime is a span's duration minus the part of its interval its children
// cover.
func selfTime(parent span, children []span) int64 {
	return (parent.End - parent.Start) - covered(children, parent.Start, parent.End)
}

// shadowSelfTime is the self time of a parent whose children were replayed
// after it returned (a shadow replay of the work the parent did behind an
// API the benchmark cannot see into): the children stand for that work, so
// their summed, non-overlapping length is subtracted wherever they ran.
func shadowSelfTime(parent span, children []span) int64 {
	const inf = int64(1) << 62
	return (parent.End - parent.Start) - covered(children, -inf, inf)
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace file: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
