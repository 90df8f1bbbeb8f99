// Package trace records time series of application quality metrics and
// resource usage during experiments and renders them as the textual
// equivalent of the paper's figures: one (t, value) series per plotted
// line, plus aligned tables for easy comparison against the published
// curves.
package trace

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Point is one sample of a series.
type Point struct {
	T time.Duration
	V float64
}

// Series is a named sequence of samples in time order. A figure builds its
// series from finished runs on one goroutine (the concurrent worlds of an
// experiment each return a RunResult first), so a Series is not safe for
// concurrent use.
type Series struct {
	Name   string
	Unit   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t time.Duration, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Recorder collects named series. Like Series, it is not safe for
// concurrent use.
type Recorder struct {
	series map[string]*Series
	order  []string
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Series returns (creating if needed) the series with the given name.
func (r *Recorder) Series(name, unit string) *Series {
	if s, ok := r.series[name]; ok {
		return s
	}
	s := &Series{Name: name, Unit: unit}
	r.series[name] = s
	r.order = append(r.order, name)
	return s
}

// Get returns an existing series.
func (r *Recorder) Get(name string) (*Series, bool) {
	s, ok := r.series[name]
	return s, ok
}

// Names returns series names in creation order.
func (r *Recorder) Names() []string {
	return append([]string(nil), r.order...)
}

// WriteTable renders all series as an aligned table: one row per sample
// index, one column per series (series of different lengths pad with
// blanks). The header carries names and units.
func (r *Recorder) WriteTable(w io.Writer) error {
	names := r.Names()
	if len(names) == 0 {
		return nil
	}
	cols := make([]*Series, len(names))
	rows := 0
	for i, n := range names {
		cols[i], _ = r.Get(n)
		rows = max(rows, cols[i].Len())
	}
	// Header.
	header := make([]string, 0, 2*len(cols))
	for _, c := range cols {
		unit := c.Unit
		if unit == "" {
			unit = "-"
		}
		header = append(header, fmt.Sprintf("t(%s)", c.Name), fmt.Sprintf("%s(%s)", c.Name, unit))
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, "\t")); err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		fields := make([]string, 0, 2*len(cols))
		for _, col := range cols {
			if i < col.Len() {
				p := col.Points[i]
				fields = append(fields, fmt.Sprintf("%.3f", p.T.Seconds()), fmt.Sprintf("%.4g", p.V))
			} else {
				fields = append(fields, "", "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(fields, "\t")); err != nil {
			return err
		}
	}
	return nil
}
