package cluster

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"
)

// fakeClock drives a Coordinator's injected Now from test code.
type fakeClock struct{ now time.Duration }

func (f *fakeClock) fn() func() time.Duration { return func() time.Duration { return f.now } }

func testNode(id string, cpu float64) NodeInfo {
	return NodeInfo{
		ID: id, Addr: id + ":7465",
		CPU: cpu, MemBytes: 256 << 20,
		Side: 256, Levels: 4, Seeds: []int64{1, 2},
	}
}

func newTestCoord(clk *fakeClock) *Coordinator {
	return NewCoordinator(Config{
		SuspectAfter: 100 * time.Millisecond,
		DeadAfter:    300 * time.Millisecond,
		Now:          clk.fn(),
	})
}

func TestCoordinatorPlacementSpread(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoord(clk)
	for _, id := range []string{"a", "b"} {
		if err := c.Register(testNode(id, 1.0)); err != nil {
			t.Fatal(err)
		}
	}
	// Equal reservations: ties break by ID, then the loaded node loses.
	g1, err := c.Resolve(ResolveRequest{SID: "s1", CPU: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if g1.NodeID != "a" || g1.Failover {
		t.Fatalf("grant %+v", g1)
	}
	g2, err := c.Resolve(ResolveRequest{SID: "s2", CPU: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NodeID != "b" {
		t.Fatalf("second session not spread: %+v", g2)
	}
	ns := c.Nodes()
	if len(ns) != 2 || ns[0].Sessions != 1 || ns[1].Sessions != 1 {
		t.Fatalf("nodes %+v", ns)
	}
	if ns[0].ReservedCPU < 0.29 || ns[0].ReservedCPU > 0.31 {
		t.Fatalf("reserved %v", ns[0].ReservedCPU)
	}
	// Ending a session frees its share.
	c.EndSession("s1")
	if r := c.Nodes()[0].ReservedCPU; r > 1e-9 {
		t.Fatalf("reservation not released: %v", r)
	}
}

func TestCoordinatorAdmissionGate(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoord(clk)
	// A node declaring 0.5 CPU admits one 0.4-share session, not two.
	if err := c.Register(testNode("small", 0.5)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(ResolveRequest{SID: "s1", CPU: 0.4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(ResolveRequest{SID: "s2", CPU: 0.4}); err == nil {
		t.Fatal("oversubscription admitted")
	} else if !strings.Contains(err.Error(), "admit") {
		t.Fatalf("unexpected error: %v", err)
	}
	// A roomier node joins: the refused demand now lands there.
	if err := c.Register(testNode("big", 1.0)); err != nil {
		t.Fatal(err)
	}
	g, err := c.Resolve(ResolveRequest{SID: "s2", CPU: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeID != "big" {
		t.Fatalf("grant %+v", g)
	}
	// s2 was never successfully placed before, so this is not a failover.
	if g.Failover {
		t.Fatal("unplaced retry counted as failover")
	}
}

// TestCoordinatorRefusesNaNShare: a ResolveRequest decoded off the wire
// may carry a NaN CPU demand. It must be refused, not reserved: a NaN
// reservation would leave a host's reserved share NaN, and every later
// admission check on that host would pass.
func TestCoordinatorRefusesNaNShare(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoord(clk)
	for _, id := range []string{"a", "b"} {
		if err := c.Register(testNode(id, 1.0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Resolve(ResolveRequest{SID: "s1", CPU: 0.5}); err != nil {
		t.Fatal(err)
	}
	before := c.Nodes()
	if g, err := c.Resolve(ResolveRequest{SID: "nan", CPU: math.NaN()}); err == nil {
		t.Fatalf("NaN share placed: %+v", g)
	}
	after := c.Nodes()
	for i := range before {
		if math.Float64bits(after[i].ReservedCPU) != math.Float64bits(before[i].ReservedCPU) ||
			after[i].Sessions != before[i].Sessions {
			t.Fatalf("node %s: reserved %v with %d sessions after the refusal, was %v with %d",
				before[i].ID, after[i].ReservedCPU, after[i].Sessions, before[i].ReservedCPU, before[i].Sessions)
		}
	}
}

func TestCoordinatorSigPinning(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoord(clk)
	same := testNode("same", 1.0)
	other := testNode("other", 1.0)
	other.Seeds = []int64{9, 9} // different image store
	if err := c.Register(same); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(other); err != nil {
		t.Fatal(err)
	}
	if same.StoreSig() == other.StoreSig() {
		t.Fatal("store signatures collide")
	}
	g, err := c.Resolve(ResolveRequest{SID: "s1", Sig: same.StoreSig()})
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeID != "same" || g.Sig != same.StoreSig() {
		t.Fatalf("grant %+v", g)
	}
	// Exclude the only matching node: nothing compatible remains.
	if _, err := c.Resolve(ResolveRequest{SID: "s1", Sig: same.StoreSig(), Exclude: []string{"same"}}); err == nil {
		t.Fatal("resolved onto an incompatible store")
	}
}

func TestCoordinatorDeathFailover(t *testing.T) {
	clk := &fakeClock{}
	c := newTestCoord(clk)
	if err := c.Register(testNode("a", 1.0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(testNode("b", 1.0)); err != nil {
		t.Fatal(err)
	}
	g, err := c.Resolve(ResolveRequest{SID: "s1", CPU: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	victim, survivor := g.NodeID, "b"
	if victim == "b" {
		survivor = "a"
	}

	// The survivor heartbeats; the victim goes silent past the deadline.
	clk.now = 200 * time.Millisecond
	if !beat(c, survivor, 1) {
		t.Fatal("survivor heartbeat refused")
	}
	c.Tick() // victim → suspect
	clk.now = 400 * time.Millisecond
	if !beat(c, survivor, -1) {
		t.Fatal("survivor heartbeat refused")
	}
	c.Tick() // victim → dead

	st := map[string]string{}
	for _, n := range c.Nodes() {
		st[n.ID] = n.State
	}
	if st[victim] != "dead" || st[survivor] != "alive" {
		t.Fatalf("states %v", st)
	}
	// The dead node refuses heartbeats (agent must re-register).
	if beat(c, victim, 0) {
		t.Fatal("dead node accepted heartbeat")
	}

	// The session's reservation was released with the death; re-resolving
	// lands on the survivor and is reported as a failover.
	g2, err := c.Resolve(ResolveRequest{SID: "s1", Exclude: []string{victim}, CPU: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NodeID != survivor || !g2.Failover {
		t.Fatalf("failover grant %+v", g2)
	}

	// Rejoin: a fresh registration resurrects the dead node.
	if err := c.Register(testNode(victim, 1.0)); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if n.ID == victim {
			if n.State != "alive" || n.Incarnation != 2 {
				t.Fatalf("rejoined node %+v", n)
			}
		}
	}
}

// beat renews id's lease with one delta batch, as an agent's heartbeat
// does, and reports whether the coordinator knew the node.
func beat(c *Coordinator, id string, sessions int32) bool {
	return len(c.ApplyDeltas([]DeltaEntry{{ID: id, Sessions: sessions}})) == 0
}

func TestCoordinatorRegisterValidation(t *testing.T) {
	c := newTestCoord(&fakeClock{})
	if err := c.Register(NodeInfo{Addr: "x:1", CPU: 1}); err == nil {
		t.Fatal("registered without ID")
	}
	if err := c.Register(NodeInfo{ID: "x", Addr: "x:1", CPU: 1.5}); err == nil {
		t.Fatal("registered with CPU > 1")
	}
	if err := c.Register(NodeInfo{ID: "x", Addr: "x:1", CPU: math.NaN()}); err == nil {
		t.Fatalf("registered with a NaN CPU share: %+v", c.Nodes())
	}
	if beat(c, "ghost", 0) {
		t.Fatal("unknown node accepted heartbeat")
	}
	if _, err := c.Resolve(ResolveRequest{}); err == nil {
		t.Fatal("resolved without session id")
	}
}

// TestClusterTCP exercises the whole control plane over loopback TCP:
// agent registration and heartbeats, resolver placement, clean
// deregistration on agent close.
func TestClusterTCP(t *testing.T) {
	c := NewCoordinator(Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(l)
	defer c.Shutdown(time.Second)

	node := testNode("n1", 1.0)
	node.Addr = "127.0.0.1:7465"
	ag := NewAgent(l.Addr().String(), node, 10*time.Millisecond, func() Load {
		return Load{ActiveSessions: 2}
	})
	if err := ag.Start(); err != nil {
		t.Fatal(err)
	}

	r := NewResolver(l.Addr().String(), time.Second)
	defer r.Close()
	ns, err := r.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 || ns[0].ID != "n1" || ns[0].State != "alive" {
		t.Fatalf("nodes %+v", ns)
	}

	g, err := r.Resolve(ResolveRequest{SID: "sess-tcp", CPU: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeID != "n1" || g.Addr != node.Addr || g.Sig != node.StoreSig() {
		t.Fatalf("grant %+v", g)
	}
	// Heartbeats keep flowing while the session runs; wait for the load
	// report to arrive.
	deadline := time.Now().Add(2 * time.Second)
	for {
		ns, err = r.Nodes()
		if err != nil {
			t.Fatal(err)
		}
		if ns[0].Load.ActiveSessions == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("load never reported: %+v", ns)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := r.EndSession("sess-tcp"); err != nil {
		t.Fatal(err)
	}

	// Graceful shutdown deregisters the node.
	ag.Close(true)
	ns, err = r.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 0 {
		t.Fatalf("node still registered after deregister: %+v", ns)
	}
}
