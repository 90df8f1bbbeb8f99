package scheduler

import (
	"fmt"
	"math"
	"sort"

	"tunable/internal/metrics"
	"tunable/internal/resource"
	"tunable/internal/sandbox"
)

// Admission implements the reservation half of Section 6.2: "the first
// [issue] can be solved by admission control and reservation ... we can
// reserve a specific CPU share (as well as ... amount of physical memory)
// with simple admission control. Once admitted, the resource-constrained
// execution environment monitors and controls application progress."
//
// An Admission manager owns a set of hosts; Reserve atomically creates one
// sandbox per requested component (all-or-nothing: a partial failure rolls
// back the sandboxes already created), and the returned Reservation hands
// the application its policing sandboxes and releases them on teardown.
type Admission struct {
	hosts map[string]*sandbox.Host

	// telemetry instruments; nil (no-op) unless EnableMetrics ran
	mAccepted *metrics.Counter
	mRejected *metrics.Counter
}

// NewAdmission creates an empty manager.
func NewAdmission() *Admission {
	return &Admission{hosts: make(map[string]*sandbox.Host)}
}

// EnableMetrics instruments admission control with
// sched_admission_accepted_total and sched_admission_rejected_total.
func (a *Admission) EnableMetrics(reg *metrics.Registry) {
	a.mAccepted = reg.Counter("sched_admission_accepted_total",
		"Reservations admitted in full.")
	a.mRejected = reg.Counter("sched_admission_rejected_total",
		"Reservations rejected (and rolled back).")
}

// AddHost registers a host under its name.
func (a *Admission) AddHost(h *sandbox.Host) error {
	if _, dup := a.hosts[h.Name()]; dup {
		return fmt.Errorf("scheduler: duplicate host %q", h.Name())
	}
	a.hosts[h.Name()] = h
	return nil
}

// RemoveHost unregisters a host (a node left the cluster or died),
// reporting whether it was present. Outstanding reservations that placed
// sandboxes on the host remain valid handles: Release frees them through
// the sandbox's own host pointer, independent of this map.
func (a *Admission) RemoveHost(name string) bool {
	_, ok := a.hosts[name]
	delete(a.hosts, name)
	return ok
}

// Host returns a registered host.
func (a *Admission) Host(name string) (*sandbox.Host, bool) {
	h, ok := a.hosts[name]
	return h, ok
}

// Hosts lists registered host names in sorted order.
func (a *Admission) Hosts() []string {
	out := make([]string, 0, len(a.hosts))
	for n := range a.hosts {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Reservation is an admitted set of sandboxes, one per component.
type Reservation struct {
	comps    []string // comps[i] is the component admitted[i] polices
	admitted []*sandbox.Sandbox
	released bool
}

// Sandbox returns the policing sandbox for a component.
func (r *Reservation) Sandbox(component string) (*sandbox.Sandbox, bool) {
	for i, c := range r.comps {
		if c == component {
			return r.admitted[i], true
		}
	}
	return nil, false
}

// Components lists reserved components in admission order.
func (r *Reservation) Components() []string {
	return append([]string(nil), r.comps...)
}

// Release frees every sandbox in the reservation. Safe to call twice.
func (r *Reservation) Release() {
	if r.released {
		return
	}
	r.released = true
	for _, sb := range r.admitted {
		sb.Host().Release(sb)
	}
}

// Reserve admits an application named name onto the managed hosts:
// requests maps component (host) names to the resources wanted there
// (resource.CPU as a share, resource.Memory as bytes). Either every
// component is admitted, or none is and the error names the component
// that failed. Components are admitted in sorted order.
func (a *Admission) Reserve(name string, requests map[string]resource.Vector) (*Reservation, error) {
	comps := make([]string, 0, len(requests))
	for comp := range requests {
		comps = append(comps, comp)
	}
	sort.Strings(comps)
	placements := make([]Placement, len(comps))
	for i, comp := range comps {
		placements[i] = Placement{Component: comp, Host: comp, Want: requests[comp]}
	}
	return a.ReservePlaced(name, placements)
}

// Placement assigns one named component of a distributed application to a
// host with a resource demand (resource.CPU as a share, resource.Memory
// as bytes). Unlike Reserve's component-name-is-host-name convention,
// placements let several components land on the same host — the shape the
// cluster coordinator needs when it places sessions onto avis nodes.
type Placement struct {
	Component string
	Host      string
	Want      resource.Vector
}

// ReservePlaced admits an application named name onto the assigned hosts,
// all-or-nothing across every placement (the multi-node grant of Section
// 6.2): either every component is admitted, or none is — a partial
// failure rolls back the sandboxes already created — and the error names
// the component that failed. Placements are admitted in the order given,
// so the first one that does not fit is the one named: pass them in a
// deterministic order (sorted by component, as Reserve does) for
// reproducible failure attribution. Each component's sandbox is named
// name@component.
func (a *Admission) ReservePlaced(name string, placements []Placement) (*Reservation, error) {
	r := &Reservation{
		comps:    make([]string, 0, len(placements)),
		admitted: make([]*sandbox.Sandbox, 0, len(placements)),
	}
	for _, pl := range placements {
		if _, dup := r.Sandbox(pl.Component); dup {
			r.Release()
			a.mRejected.Inc()
			return nil, fmt.Errorf("scheduler: duplicate component %q in placement", pl.Component)
		}
		host, ok := a.hosts[pl.Host]
		if !ok {
			r.Release()
			a.mRejected.Inc()
			return nil, fmt.Errorf("scheduler: no host %q registered", pl.Host)
		}
		share := pl.Want.Get(resource.CPU, 0)
		if share <= 0 {
			r.Release()
			a.mRejected.Inc()
			return nil, fmt.Errorf("scheduler: component %q requests no CPU", pl.Component)
		}
		mem := pl.Want.Get(resource.Memory, 0)
		if !(math.Abs(mem) < 1<<63) { // an int64 cannot hold it; refuses NaN too
			r.Release()
			a.mRejected.Inc()
			return nil, fmt.Errorf("scheduler: component %q requests %g bytes of memory", pl.Component, mem)
		}
		sb, err := host.NewSandbox(name+"@"+pl.Component, share, int64(mem))
		if err != nil {
			r.Release()
			a.mRejected.Inc()
			return nil, fmt.Errorf("scheduler: admission failed for %q: %w", pl.Component, err)
		}
		r.comps = append(r.comps, pl.Component)
		r.admitted = append(r.admitted, sb)
	}
	a.mAccepted.Inc()
	return r, nil
}

// Available reports the unreserved CPU share on a host.
func (a *Admission) Available(host string) (float64, error) {
	h, ok := a.hosts[host]
	if !ok {
		return 0, fmt.Errorf("scheduler: no host %q registered", host)
	}
	return sandbox.MaxReservable - h.Reserved(), nil
}
