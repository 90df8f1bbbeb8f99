package perfdb

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"tunable/internal/resource"
	"tunable/internal/spec"
)

// Lattice is the compiled read form of one configuration's profile: what
// every model query runs on. Compile builds it once from the profile's
// records — lazily for DB, on first read and on every fold for perfstore's
// merged profile — and it never changes afterwards, so any number of
// readers may share one; DB.Add and DB.SetMode drop the profile's lattice
// and the next read compiles a new one.
//
// The compiled form answers exactly what walking the record map would:
// the sample lattice is the sorted, approximately-deduplicated values seen
// along each resource kind (resource.NewGrid), the record at a lattice
// point is the one whose canonical resource key equals the point's, and
// interpolation visits the 2^d bracketing corners in the same order with
// the same floating-point operations. Predictions are therefore
// bit-identical to the reference walk kept in reference_test.go.
type Lattice struct {
	config spec.Config
	mode   PredictMode

	axes   []resource.Axis // one per resource kind, kinds sorted
	stride []int           // flat-index stride per axis, last axis fastest; nil if the index would overflow

	cells []cell // the lattice points holding a record, by ascending flat index

	names  []string  // metric columns, sorted
	vals   []float64 // len(recs)·len(names) metric values, one row per record
	absent []bool    // parallel to vals, set where a record lacks a metric; nil if none does

	recs  []*Record       // in resource-key order: what Records returns
	scale resource.Vector // per-kind axis span normalizing nearest's distances
}

// cell is one lattice point a record sits on.
type cell struct {
	at  int   // flat lattice index
	row int32 // the record's row in recs and vals
}

// Compile builds the lattice of one configuration's profile from its
// records, which must be in canonical resource-key order with no key
// repeated (the order Records returns). It is the one compile both the
// offline database and perfstore's merged prior ∪ overlay run. The lattice
// keeps recs and the records in it, which must not change afterwards. It is
// nil when there are no records.
func Compile(cfg spec.Config, mode PredictMode, recs []*Record) *Lattice {
	if len(recs) == 0 {
		return nil
	}
	l := &Lattice{config: cfg, mode: mode, recs: recs}

	// Sample lattice: per kind any record carries, the values the records
	// carry.
	var kindBuf [4]resource.Kind
	kinds := kindBuf[:0]
	for _, rec := range recs {
		for k := range rec.Resources {
			if !slices.Contains(kinds, k) {
				kinds = append(kinds, k)
			}
		}
	}
	slices.Sort(kinds)
	axes := make([]resource.Axis, len(kinds))
	pts := make([]float64, 0, len(kinds)*len(recs))
	for i, k := range kinds {
		start := len(pts)
		for _, rec := range recs {
			if v, ok := rec.Resources[k]; ok {
				pts = append(pts, v)
			}
		}
		axes[i] = resource.Axis{Kind: k, Points: pts[start:len(pts):len(pts)]}
	}
	l.axes = resource.NewGrid(axes...).Axes

	l.scale = make(resource.Vector, len(l.axes))
	for _, ax := range l.axes {
		span := ax.Points[len(ax.Points)-1] - ax.Points[0]
		if span <= 0 {
			span = math.Abs(ax.Points[0])
			if span == 0 {
				span = 1
			}
		}
		l.scale[ax.Kind] = span
	}

	l.indexCells()
	l.flattenMetrics()
	return l
}

// indexCells records which lattice points hold a record. A point holds
// the record whose canonical resource key equals the point's own key, so a
// record lacking one of the profile's kinds sits on no point, and one
// whose coordinate shares its six-digit rendering with neighbouring axis
// values sits on each of them.
func (l *Lattice) indexCells() {
	l.stride = make([]int, len(l.axes))
	size := 1
	for i := len(l.axes) - 1; i >= 0; i-- {
		l.stride[i] = size
		n := len(l.axes[i].Points)
		if size > math.MaxInt/n {
			l.stride = nil // no point is addressable: every query takes the nearest record
			return
		}
		size *= n
	}
	if len(l.axes) == 0 {
		return
	}
	l.cells = make([]cell, 0, len(l.recs))
	// Per axis: the half-open run of point indices rendered like the
	// record's coordinate, and the odometer's position in it.
	var buf [3 * 4]int
	scratch := buf[:]
	if 3*len(l.axes) > len(scratch) {
		scratch = make([]int, 3*len(l.axes))
	}
	run, idx := scratch[:2*len(l.axes)], scratch[2*len(l.axes):3*len(l.axes)]
	for row, rec := range l.recs {
		if len(rec.Resources) != len(l.axes) {
			continue
		}
		cells := 1
		for i, ax := range l.axes {
			lo, hi := keyRun(ax.Points, rec.Resources[ax.Kind])
			run[2*i], run[2*i+1] = lo, hi
			cells *= hi - lo
		}
		if cells == 0 {
			continue
		}
		// Odometer over the product of the runs — one cell unless some
		// axis carries values closer than the key's precision.
		for i := range idx {
			idx[i] = run[2*i]
		}
		for {
			at := 0
			for i, j := range idx {
				at += j * l.stride[i]
			}
			l.cells = append(l.cells, cell{at, int32(row)})
			i := len(idx) - 1
			for ; i >= 0; i-- {
				if idx[i]++; idx[i] < run[2*i+1] {
					break
				}
				idx[i] = run[2*i]
			}
			if i < 0 {
				break
			}
		}
	}
	slices.SortFunc(l.cells, func(a, b cell) int { return cmp.Compare(a.at, b.at) })
}

// keyRun returns the half-open range of indices of pts (sorted ascending)
// whose values resource.Vector.Key renders like x. Rendering is monotone,
// so the range is contiguous and touches x's insertion point.
func keyRun(pts []float64, x float64) (lo, hi int) {
	at := sort.SearchFloat64s(pts, x)
	if x != x {
		at = 0 // NaNs sort first
	}
	lo, hi = at, at
	for lo > 0 && resource.KeyEqual(pts[lo-1], x) {
		lo--
	}
	for hi < len(pts) && resource.KeyEqual(pts[hi], x) {
		hi++
	}
	return lo, hi
}

// flattenMetrics lays the records' metric maps out as one row of columns
// per record.
func (l *Lattice) flattenMetrics() {
	for _, rec := range l.recs {
		for name := range rec.Metrics {
			known := false
			for _, n := range l.names {
				if n == name {
					known = true
					break
				}
			}
			if !known {
				l.names = append(l.names, name)
			}
		}
	}
	sort.Strings(l.names)
	l.vals = make([]float64, len(l.recs)*len(l.names))
	for row, rec := range l.recs {
		for col, name := range l.names {
			v, ok := rec.Metrics[name]
			l.vals[row*len(l.names)+col] = v
			if !ok {
				if l.absent == nil {
					l.absent = make([]bool, len(l.vals))
				}
				l.absent[row*len(l.names)+col] = true
			}
		}
	}
}

// Axes returns the sample lattice: per resource kind (sorted), the sorted
// distinct values the profile was sampled at. The slices are shared; do
// not modify them.
func (l *Lattice) Axes() []resource.Axis { return l.axes }

// Records returns the profile's records in resource-key order. The slice
// is shared; do not modify it.
func (l *Lattice) Records() []*Record { return l.recs }

// Predict estimates the metrics the configuration would achieve under
// resource conditions res, in a new map. See PredictInto.
func (l *Lattice) Predict(res resource.Vector) (spec.Metrics, error) {
	m := make(spec.Metrics, len(l.names))
	if err := l.PredictInto(res, m); err != nil {
		return nil, err
	}
	return m, nil
}

// PredictInto is Predict into a caller-owned map, which it clears first;
// it does not allocate once dst has held a prediction. In Interpolate mode
// it interpolates multilinearly over the sample lattice (clamping to the
// lattice boundary, which extrapolates by nearest edge); where res lacks a
// lattice dimension or a bracketing corner has no record, and in
// NearestOnly mode, it answers with the nearest sampled point. The only
// error is a query no record is nearest to (a NaN coordinate).
func (l *Lattice) PredictInto(res resource.Vector, dst spec.Metrics) error {
	clear(dst)
	if l.mode == Interpolate && l.interpolate(res, dst) {
		return nil
	}
	row, ok := l.nearest(res)
	if !ok {
		return fmt.Errorf("perfdb: %s: no record is nearest to %s", l.config.Key(), res)
	}
	for col, name := range l.names {
		if at := row*len(l.names) + col; l.absent == nil || !l.absent[at] {
			dst[name] = l.vals[at]
		}
	}
	return nil
}

// nearest returns the row of the record whose resource point is closest
// to res; ok is false when none is (a NaN coordinate).
func (l *Lattice) nearest(res resource.Vector) (row int, ok bool) {
	bestD := math.Inf(1)
	for i, rec := range l.recs {
		if d := rec.Resources.Distance(res, l.scale); d < bestD {
			bestD, row, ok = d, i, true
		}
	}
	return row, ok
}

// interpolate adds the multilinear interpolation at res into dst and
// reports whether it could: res must carry every lattice dimension and
// every bracketing corner must hold a record.
func (l *Lattice) interpolate(res resource.Vector, dst spec.Metrics) bool {
	if l.stride == nil || len(l.axes) == 0 {
		return false
	}
	// The dimensions res falls strictly between two lattice values of, and
	// the flat index of the corner taking the low value in each of them.
	type between struct {
		lo, hi int     // flat-index contributions of the two ends
		w      float64 // weight of the hi end
	}
	var dimBuf [4]between
	dims := dimBuf[:0]
	base := 0
	for i, ax := range l.axes {
		x, ok := res[ax.Kind]
		if !ok {
			return false
		}
		lo, hi := ax.Bracket(x)
		if pl, ph := ax.Points[lo], ax.Points[hi]; pl == ph {
			base += lo * l.stride[i]
		} else {
			dims = append(dims, between{lo * l.stride[i], hi * l.stride[i], (x - pl) / (ph - pl)})
		}
	}

	// Weighted sum over the 2^d corners, first dimension outermost and low
	// end first; each product is rounded before it is added so the sums do
	// not depend on whether the target fuses multiply-adds.
	var accBuf [8]float64
	var seenBuf [8]bool
	acc, seen := accBuf[:], seenBuf[:]
	if len(l.names) > len(acc) {
		acc, seen = make([]float64, len(l.names)), make([]bool, len(l.names))
	}
	acc, seen = acc[:len(l.names)], seen[:len(l.names)]
	for corner := 0; corner < 1<<len(dims); corner++ {
		at, weight := base, 1.0
		for i, d := range dims {
			if corner>>(len(dims)-1-i)&1 == 0 {
				at, weight = at+d.lo, weight*(1-d.w)
			} else {
				at, weight = at+d.hi, weight*d.w
			}
		}
		c := sort.Search(len(l.cells), func(i int) bool { return l.cells[i].at >= at })
		if c == len(l.cells) || l.cells[c].at != at {
			return false
		}
		row := int(l.cells[c].row) * len(l.names)
		for col := range acc {
			if l.absent == nil || !l.absent[row+col] {
				acc[col] += float64(weight * l.vals[row+col])
				seen[col] = true
			}
		}
	}
	for col, name := range l.names {
		if seen[col] {
			dst[name] = acc[col]
		}
	}
	return true
}
