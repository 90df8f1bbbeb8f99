// Package resource defines the resource vocabulary shared by the sandbox,
// the performance database, the monitoring agent, and the scheduler:
// resource kinds, capacity/availability vectors, requests, and sweepable
// grids over the multidimensional resource space (Sections 5 and 6 of the
// paper).
package resource

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Kind identifies a resource dimension.
type Kind string

// The resource dimensions the paper's testbed controls (Section 5.1).
const (
	CPU       Kind = "cpu"       // fractional share of a host's processor, 0..1
	Bandwidth Kind = "bandwidth" // network bandwidth, bytes/second
	Memory    Kind = "memory"    // physical memory, bytes
	Latency   Kind = "latency"   // one-way network latency, seconds
)

// AllKinds lists the defined dimensions in canonical order.
var AllKinds = []Kind{CPU, Bandwidth, Memory, Latency}

// Vector is a point in resource space: a value for each dimension that
// matters to the component using it. Missing dimensions mean "don't care".
type Vector map[Kind]float64

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	for k, x := range v {
		c[k] = x
	}
	return c
}

// Get returns the value of k, or def if the dimension is absent.
func (v Vector) Get(k Kind, def float64) float64 {
	if x, ok := v[k]; ok {
		return x
	}
	return def
}

// With returns a copy of v with dimension k set to x.
func (v Vector) With(k Kind, x float64) Vector {
	c := v.Clone()
	c[k] = x
	return c
}

// Kinds returns the dimensions present in v, sorted canonically.
func (v Vector) Kinds() []Kind {
	return v.appendKinds(make([]Kind, 0, len(v)))
}

// appendKinds appends v's dimensions to ks, which callers with a buffer
// keep on their stack, and sorts the whole of ks canonically.
func (v Vector) appendKinds(ks []Kind) []Kind {
	for k := range v {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// Equal reports whether v and w contain the same dimensions with values
// within a relative tolerance of 1e-9.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for k, x := range v {
		y, ok := w[k]
		if !ok {
			return false
		}
		if !approxEqual(x, y) {
			return false
		}
	}
	return true
}

func approxEqual(x, y float64) bool {
	if x == y {
		return true
	}
	d := math.Abs(x - y)
	m := math.Max(math.Abs(x), math.Abs(y))
	return d <= 1e-9*m
}

// Dominates reports whether v offers at least as much of every dimension in
// w (more bandwidth/CPU/memory, less latency). Dimensions absent from w are
// ignored; a dimension present in w but absent from v fails the test.
func (v Vector) Dominates(w Vector) bool {
	for k, need := range w {
		have, ok := v[k]
		if !ok {
			return false
		}
		if k == Latency {
			if have > need+1e-12 {
				return false
			}
		} else if have < need-1e-12 {
			return false
		}
	}
	return true
}

// Distance returns a normalized Euclidean distance between v and w over the
// union of their dimensions, using scale to normalize each dimension (zero
// or absent scales default to the larger magnitude of the two values). The
// squares are summed in canonical kind order, so the result does not
// depend on map iteration order.
func (v Vector) Distance(w Vector, scale Vector) float64 {
	var buf [8]Kind
	dims := buf[:0]
	for k := range w {
		if _, shared := v[k]; !shared {
			dims = append(dims, k)
		}
	}
	dims = v.appendKinds(dims)
	var sum float64
	for _, k := range dims {
		a, b := v[k], w[k]
		s := scale.Get(k, math.Max(math.Abs(a), math.Abs(b)))
		if s == 0 {
			continue
		}
		d := (a - b) / s
		sum += d * d
	}
	return math.Sqrt(sum)
}

// String renders the vector deterministically, e.g. "bandwidth=512000 cpu=0.4".
func (v Vector) String() string {
	parts := make([]string, 0, len(v))
	for _, k := range v.Kinds() {
		parts = append(parts, fmt.Sprintf("%s=%g", k, v[k]))
	}
	return strings.Join(parts, " ")
}

// Key renders a canonical map key for the vector, quantizing values to
// six significant digits to avoid float jitter splitting identical sample
// points: "bandwidth=512000,cpu=0.4". Performance-database files, WAL
// snapshots and overlay records are all keyed on this exact string.
func (v Vector) Key() string {
	var buf [96]byte
	return string(v.AppendKey(buf[:0]))
}

// AppendKey appends Key's rendering of v to b.
func (v Vector) AppendKey(b []byte) []byte {
	var buf [4]Kind
	for i, k := range v.appendKinds(buf[:0]) {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, k...)
		b = append(b, '=')
		b = appendKeyValue(b, v[k])
	}
	return b
}

// appendKeyValue is the value half of a Key entry: fmt's %.6g.
func appendKeyValue(b []byte, x float64) []byte {
	return strconv.AppendFloat(b, x, 'g', 6, 64)
}

// KeyEqual reports whether Key renders the values x and y identically,
// i.e. whether vectors differing only by x versus y in one dimension share
// a key.
func KeyEqual(x, y float64) bool {
	// Values agreeing to six significant digits lie within one unit of the
	// sixth digit, a relative distance of at most 1e-5; anything clearly
	// further apart is told apart without formatting.
	if math.Abs(x-y) > 2e-5*math.Max(math.Abs(x), math.Abs(y)) {
		return false
	}
	var bx, by [32]byte
	return bytes.Equal(appendKeyValue(bx[:0], x), appendKeyValue(by[:0], y))
}

// Request is a desired allocation of resources on a named host or link,
// used by the scheduler's admission control (Section 6.2).
type Request struct {
	Component string // host or link name from the execution environment
	Wants     Vector
}

// Capacity describes the maximum resources a system component offers, as
// reported by the system-wide monitor (Section 6.1).
type Capacity struct {
	Component string
	Limits    Vector
}

// Fits reports whether the request fits within the capacity.
func (c Capacity) Fits(r Request) bool {
	if r.Component != c.Component {
		return false
	}
	return c.Limits.Dominates(r.Wants)
}
