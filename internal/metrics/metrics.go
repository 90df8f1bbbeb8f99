// Package metrics is the live telemetry layer of the adaptation stack: a
// metric registry holding sharded lock-free counters, gauges, and
// log-bucketed latency histograms, with snapshot/export in Prometheus text
// exposition format and JSON, and an HTTP /metrics + /healthz endpoint for
// real-network deployments.
//
// The package is clock-agnostic: a Registry carries an injected
// now() time.Duration source instead of reading time.Now directly, so the
// same instruments run under the deterministic vtime kernel (now =
// sim.Now) and under wall-clock real mode (now = time.Since(start)).
//
// Instrument handles are nil-safe: every method on a nil *Counter,
// *Gauge, or *Histogram is a no-op, so instrumented packages keep nil
// fields until EnableMetrics is called and pay only a nil check when
// telemetry is off. The hot paths (Counter.Add, Gauge.Set,
// Histogram.Observe) are allocation-free and lock-free.
package metrics

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// numShards is the stripe count of a sharded counter. Adds pick a stripe
// with a per-call fast random so concurrent writers on different cores
// rarely collide on a cache line; reads sum all stripes.
const numShards = 16

// shard is one cache-line-padded counter stripe.
type shard struct {
	bits atomic.Uint64
	_    [7]uint64 // pad to a 64-byte cache line
}

// shardIdx picks a stripe. rand/v2's top-level generator is per-core,
// lock-free, and allocation-free, so this costs a few nanoseconds and
// never serializes writers.
func shardIdx() int { return int(rand.Uint32() & (numShards - 1)) }

// Label is one name=value pair attached to a metric at registration time.
type Label struct{ Key, Value string }

// L constructs a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// desc is the identity of a registered metric.
type desc struct {
	name   string
	help   string
	labels []Label
}

// id returns the registry key: name plus canonically ordered labels.
func (d *desc) id() string {
	if len(d.labels) == 0 {
		return d.name
	}
	return d.name + d.labelString()
}

// labelString renders {k1="v1",k2="v2"} with keys sorted.
func (d *desc) labelString() string {
	if len(d.labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), d.labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing value, striped across padded
// atomic cells. Values are float64 so fractional quantities (CPU-seconds)
// accumulate exactly like integer counts (exact up to 2^53).
type Counter struct {
	d      desc
	shards [numShards]shard
}

// Add increments the counter. Negative deltas are ignored (counters are
// monotonic). Safe for concurrent use; allocation-free.
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	s := &c.shards[shardIdx()]
	for {
		old := s.bits.Load()
		if s.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	var sum float64
	for i := range c.shards {
		sum += math.Float64frombits(c.shards[i].bits.Load())
	}
	return sum
}

// Name returns the metric name (without labels).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.d.name
}

// Gauge is an instantaneous value that can go up and down.
type Gauge struct {
	d    desc
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (CAS loop; lock-free).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// metric is the union of registered instrument kinds.
type metric interface {
	describe() *desc
	kind() string
}

func (c *Counter) describe() *desc   { return &c.d }
func (c *Counter) kind() string      { return "counter" }
func (g *Gauge) describe() *desc     { return &g.d }
func (g *Gauge) kind() string        { return "gauge" }
func (h *Histogram) describe() *desc { return &h.d }
func (h *Histogram) kind() string    { return "histogram" }

// Registry is a namespace of metrics. The zero value is not usable;
// construct with New. A nil *Registry is a valid "telemetry off" registry:
// every lookup returns a nil instrument whose methods are no-ops.
type Registry struct {
	mu    sync.Mutex
	now   func() time.Duration
	byID  map[string]metric
	order []string // registration order of ids
}

// Option customizes a Registry.
type Option func(*Registry)

// WithNow injects the time source used to timestamp snapshots (sim.Now for
// virtual time, time.Since(start) for wall clock). The default reports
// time since registry creation in wall-clock terms.
func WithNow(fn func() time.Duration) Option {
	return func(r *Registry) {
		if fn != nil {
			r.now = fn
		}
	}
}

// New creates an empty registry.
func New(opts ...Option) *Registry {
	start := time.Now()
	r := &Registry{
		now:  func() time.Duration { return time.Since(start) },
		byID: make(map[string]metric),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Now reports the registry's current time.
func (r *Registry) Now() time.Duration {
	if r == nil {
		return 0
	}
	return r.now()
}

// register returns the existing metric under id or installs m. It panics
// on a kind clash: re-registering a name as a different instrument type is
// a programming error that would silently corrupt the exposition.
func (r *Registry) register(id string, m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byID[id]; ok {
		if old.kind() != m.kind() {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", id, m.kind(), old.kind()))
		}
		return old
	}
	r.byID[id] = m
	r.order = append(r.order, id)
	return m
}

// Counter returns (creating if needed) the counter with the given name and
// labels. A nil registry returns nil, whose methods are no-ops.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{d: desc{name: name, help: help, labels: labels}}
	return r.register(c.d.id(), c).(*Counter)
}

// Gauge returns (creating if needed) the gauge with the given name/labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{d: desc{name: name, help: help, labels: labels}}
	return r.register(g.d.id(), g).(*Gauge)
}

// Histogram returns (creating if needed) the histogram with the given
// name/labels.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{d: desc{name: name, help: help, labels: labels}}
	return r.register(h.d.id(), h).(*Histogram)
}

// each calls fn for every metric in registration order.
func (r *Registry) each(fn func(metric)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ids := append([]string(nil), r.order...)
	ms := make([]metric, len(ids))
	for i, id := range ids {
		ms[i] = r.byID[id]
	}
	r.mu.Unlock()
	for _, m := range ms {
		fn(m)
	}
}
