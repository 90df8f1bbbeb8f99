package scheduler

import (
	"fmt"
	"sort"
	"sync"

	"tunable/internal/resource"
)

// Arbiter is the cross-application half of admission control. Where
// Admission polices one application's reservation on concrete hosts, the
// Arbiter divides shared capacity pools (link bandwidth, aggregate CPU)
// between *application classes* — the multi-app contention case the paper
// leaves open and the Roy/Mukherjee multi-agent frameworks argue for: each
// class has its own tuning agent, and a coordinator above them keeps one
// class's appetite from consuming another's guarantee.
//
// Each class holds a weighted guaranteed share of every pool. A class may
// borrow idle capacity beyond its guarantee (the arbiter is
// work-conserving), but an acquisition is admitted only if, after the
// grant, the remaining free capacity still covers every *other* class's
// unmet guarantee. Borrowed capacity therefore never has to be preempted:
// a class asking for resources within its guarantee always succeeds, which
// is what makes starvation structurally impossible rather than merely
// unlikely.
//
// The arbiter is safe for concurrent use; the mixed-workload harness
// drives it single-threaded in virtual time, while churn tests hammer it
// from parallel goroutines under -race.
type Arbiter struct {
	mu      sync.Mutex
	pool    resource.Vector
	classes map[string]*classState
	order   []string // class names, sorted, for deterministic iteration
}

type classState struct {
	weight float64
	used   resource.Vector
	active int
}

// ClassShare declares one application class's arbitration weight.
// Guarantees are proportional: a class's guaranteed share of each pool is
// pool * weight / Σweights.
type ClassShare struct {
	Class  string
	Weight float64
}

// NewArbiter creates an arbiter over the given capacity pools. Every pool
// value must be positive, every class weight positive, and at least one
// class declared.
func NewArbiter(pool resource.Vector, shares []ClassShare) (*Arbiter, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("scheduler: arbiter needs at least one capacity pool")
	}
	for k, v := range pool {
		if v <= 0 {
			return nil, fmt.Errorf("scheduler: arbiter pool %s must be positive, got %g", k, v)
		}
	}
	if len(shares) == 0 {
		return nil, fmt.Errorf("scheduler: arbiter needs at least one class")
	}
	a := &Arbiter{
		pool:    pool.Clone(),
		classes: make(map[string]*classState, len(shares)),
	}
	for _, s := range shares {
		if s.Class == "" {
			return nil, fmt.Errorf("scheduler: arbiter class with empty name")
		}
		if s.Weight <= 0 {
			return nil, fmt.Errorf("scheduler: class %q weight must be positive, got %g", s.Class, s.Weight)
		}
		if _, dup := a.classes[s.Class]; dup {
			return nil, fmt.Errorf("scheduler: duplicate class %q", s.Class)
		}
		a.classes[s.Class] = &classState{weight: s.Weight, used: resource.Vector{}}
		a.order = append(a.order, s.Class)
	}
	sort.Strings(a.order)
	return a, nil
}

// Classes returns the declared class names in sorted order.
func (a *Arbiter) Classes() []string { return append([]string(nil), a.order...) }

// guarantee returns the class's guaranteed share of every pool.
func (a *Arbiter) guarantee(class string) (resource.Vector, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cs, ok := a.classes[class]
	if !ok {
		return nil, fmt.Errorf("scheduler: unknown class %q", class)
	}
	g := resource.Vector{}
	for k := range a.pool {
		g[k] = a.shareLocked(cs, k)
	}
	return g, nil
}

// shareLocked returns the class's guaranteed share of pool k.
func (a *Arbiter) shareLocked(cs *classState, k resource.Kind) float64 {
	var total float64
	for _, s := range a.classes {
		total += s.weight
	}
	return a.pool[k] * cs.weight / total
}

// Used returns the class's current holdings.
func (a *Arbiter) Used(class string) resource.Vector {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cs, ok := a.classes[class]; ok {
		return cs.used.Clone()
	}
	return resource.Vector{}
}

// Active returns how many grants the class currently holds.
func (a *Arbiter) Active(class string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cs, ok := a.classes[class]; ok {
		return cs.active
	}
	return 0
}

// Contended reports whether more than one class currently holds grants —
// the condition under which per-class tuning agents should plan
// conservatively (SelectDerated) instead of assuming the whole pool.
func (a *Arbiter) Contended() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.contendedLocked()
}

func (a *Arbiter) contendedLocked() bool {
	n := 0
	for _, cs := range a.classes {
		if cs.active > 0 {
			n++
		}
	}
	return n > 1
}

// ClassGrant is one admitted cross-class acquisition.
type ClassGrant struct {
	arb      *Arbiter
	class    string
	want     resource.Vector
	released bool
}

// Acquire admits one session's demand against the class's share of the
// pools. The rule is guarantee-protecting borrowing: the grant is admitted
// iff (a) it fits the free capacity of every pool and (b) afterwards the
// free capacity still covers every other class's unmet guarantee. A class
// asking within its own guarantee therefore can never be refused because
// of another class's borrowing.
func (a *Arbiter) Acquire(class string, want resource.Vector) (*ClassGrant, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cs, ok := a.classes[class]
	if !ok {
		return nil, fmt.Errorf("scheduler: unknown class %q", class)
	}
	for k, v := range want {
		if v < 0 {
			return nil, fmt.Errorf("scheduler: class %q wants negative %s", class, k)
		}
		if _, pooled := a.pool[k]; !pooled {
			return nil, fmt.Errorf("scheduler: class %q wants unpooled resource %s", class, k)
		}
	}
	// Check per pool: the grant fits, and every other class's unmet
	// guarantee survives it.
	for k, cap := range a.pool {
		var total float64
		for _, s := range a.classes {
			total += s.used.Get(k, 0)
		}
		free := cap - total - want.Get(k, 0)
		if free < -epsilon {
			return nil, fmt.Errorf("scheduler: class %q: pool %s exhausted (%.4g free, %.4g wanted)",
				class, k, cap-total, want.Get(k, 0))
		}
		var owed float64
		for name, s := range a.classes {
			if name == class {
				continue
			}
			if unmet := a.shareLocked(s, k) - s.used.Get(k, 0); unmet > 0 {
				owed += unmet
			}
		}
		if free+epsilon < owed {
			return nil, fmt.Errorf("scheduler: class %q: granting %.4g %s would invade other classes' guarantees (%.4g free, %.4g owed)",
				class, want.Get(k, 0), k, free+want.Get(k, 0), owed)
		}
	}
	for k, v := range want {
		cs.used[k] = cs.used.Get(k, 0) + v
	}
	cs.active++
	return &ClassGrant{arb: a, class: class, want: want.Clone()}, nil
}

// Release returns a grant's capacity to its pools. Safe to call twice.
func (a *Arbiter) Release(g *ClassGrant) {
	if g == nil || g.arb != a {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if g.released {
		return
	}
	g.released = true
	cs := a.classes[g.class]
	for k, v := range g.want {
		u := cs.used.Get(k, 0) - v
		if u < 0 {
			u = 0
		}
		cs.used[k] = u
	}
	cs.active--
}

// PlanningCapacity derates an observed resource vector for one class's
// tuning agent, in place: v belongs to the caller, who may reuse it from
// one plan to the next, so a plan allocates nothing here. Per pooled kind,
// the class should plan against no more than its guarantee plus whatever
// is currently idle — capacity borrowed from other classes is a loan that
// an arrival of theirs reclaims, so a configuration chosen assuming it
// would be invalidated by the very contention the arbiter exists to
// manage. The clamp applies only while classes contend, and only lowers a
// value (never plan above what the probes report); kinds not pooled, an
// unknown class and an uncontended arbiter leave v as it was.
func (a *Arbiter) PlanningCapacity(class string, v resource.Vector) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cs, ok := a.classes[class]
	if !ok || !a.contendedLocked() {
		return
	}
	for k, capacity := range a.pool {
		obs, has := v[k]
		if !has {
			continue
		}
		var total float64
		for _, s := range a.classes {
			total += s.used.Get(k, 0)
		}
		idle := capacity - total
		if idle < 0 {
			idle = 0
		}
		if limit := a.shareLocked(cs, k) + idle; limit < obs {
			v[k] = limit
		}
	}
}

// epsilon absorbs float accumulation error in share arithmetic.
const epsilon = 1e-9
