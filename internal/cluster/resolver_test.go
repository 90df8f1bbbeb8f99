package cluster

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"tunable/internal/metrics"
)

// quickRetry is a near-instant retry policy so failure tests stay fast.
func quickRetry() Backoff {
	return Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Factor: 2}
}

var errInjectedDial = errors.New("injected dial failure")

func TestResolverDeadCoordinatorFailsBounded(t *testing.T) {
	// A listener that is closed immediately: the port exists but nothing
	// answers, so every dial is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	r := NewResolver(addr, 100*time.Millisecond)
	defer r.Close()
	r.cl.setRetryPolicy(3, quickRetry(), nil)
	reg := metrics.New()
	r.EnableMetrics(reg)

	start := time.Now()
	_, err = r.Resolve(ResolveRequest{SID: "s1"})
	if err == nil {
		t.Fatal("resolve against a dead coordinator succeeded")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("resolve took %v, want bounded failure", took)
	}
	ctr := reg.Counter("cluster_ctrl_retries_total", "", metrics.L("role", "resolver"))
	if got := ctr.Value(); got != 2 {
		t.Fatalf("retries counter = %v, want 2 (3 attempts)", got)
	}
}

func TestResolverTransientDialFailureRetriesThenRecovers(t *testing.T) {
	// The first dial fails (injected through the fault seam); the resolver
	// must retry transparently and the caller must never see the transient
	// failure.
	coord := NewCoordinator(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go coord.Serve(ln)
	defer coord.Shutdown(time.Second)
	if err := coord.Register(NodeInfo{ID: "n1", Addr: "127.0.0.1:9", CPU: 1, Side: 256, Levels: 4}); err != nil {
		t.Fatal(err)
	}

	r := NewResolver(ln.Addr().String(), time.Second)
	defer r.Close()
	r.cl.setRetryPolicy(3, quickRetry(), nil)
	reg := metrics.New()
	r.EnableMetrics(reg)
	var calls int
	r.SetDialer(func(network, addr string, timeout time.Duration) (net.Conn, error) {
		calls++
		if calls == 1 {
			return nil, errInjectedDial
		}
		return net.DialTimeout(network, addr, timeout)
	})

	grant, err := r.Resolve(ResolveRequest{SID: "s1"})
	if err != nil {
		t.Fatalf("resolve did not survive a transient connection failure: %v", err)
	}
	if grant.NodeID != "n1" {
		t.Fatalf("grant %+v, want node n1", grant)
	}
	ctr := reg.Counter("cluster_ctrl_retries_total", "", metrics.L("role", "resolver"))
	if got := ctr.Value(); got < 1 {
		t.Fatalf("retries counter = %v, want ≥ 1", got)
	}
}

func TestResolverRefusalNotRetried(t *testing.T) {
	// An empty cluster refuses placement; the refusal must surface
	// immediately rather than being retried (a replacement attempt would
	// be refused identically).
	coord := NewCoordinator(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go coord.Serve(ln)
	defer coord.Shutdown(time.Second)

	r := NewResolver(ln.Addr().String(), time.Second)
	defer r.Close()
	r.cl.setRetryPolicy(5, quickRetry(), nil)
	reg := metrics.New()
	r.EnableMetrics(reg)

	_, err = r.Resolve(ResolveRequest{SID: "s1"})
	if err == nil {
		t.Fatal("resolve on an empty cluster succeeded")
	}
	if !strings.Contains(err.Error(), "refused") {
		t.Fatalf("error %v, want a coordinator refusal", err)
	}
	ctr := reg.Counter("cluster_ctrl_retries_total", "", metrics.L("role", "resolver"))
	if got := ctr.Value(); got != 0 {
		t.Fatalf("refusal was retried %v times, want 0", got)
	}
}

func TestResolverRetryBudgetBoundsAttempts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	r := NewResolver(addr, 100*time.Millisecond)
	defer r.Close()
	// 10 attempts allowed by policy, but only 1 retry token.
	r.cl.setRetryPolicy(10, quickRetry(), NewRetryBudget(1, 0))
	reg := metrics.New()
	r.EnableMetrics(reg)

	if _, err := r.Resolve(ResolveRequest{SID: "s1"}); err == nil {
		t.Fatal("resolve against a dead coordinator succeeded")
	}
	ctr := reg.Counter("cluster_ctrl_retries_total", "", metrics.L("role", "resolver"))
	if got := ctr.Value(); got != 1 {
		t.Fatalf("retries counter = %v, want exactly the budgeted 1", got)
	}
}
