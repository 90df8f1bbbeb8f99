package cluster

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tunable/internal/avis"
	"tunable/internal/metrics"
	"tunable/internal/wavelet"
)

// clusterNode is one avis server joined to a test cluster.
type clusterNode struct {
	id    string
	srv   *avis.RealServer
	ln    net.Listener
	agent *Agent
}

// kill simulates a node crash: the data plane drops every connection and
// the heartbeats stop, but nothing deregisters — the coordinator must
// notice the silence on its own.
func (n *clusterNode) kill() {
	n.agent.Close(false)
	n.srv.Shutdown(0)
}

// startClusterNode boots an avis server on loopback and joins it to the
// coordinator at coordAddr with fast heartbeats.
func startClusterNode(t *testing.T, coordAddr, id string) *clusterNode {
	t.Helper()
	srv, err := avis.NewRealServer(256, 4, []int64{1, 2}, avis.SharedStore())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	agent := NewAgent(coordAddr, NodeInfo{
		ID: id, Addr: ln.Addr().String(),
		CPU: 1.0, MemBytes: 256 << 20,
		Side: 256, Levels: 4, Seeds: []int64{1, 2},
	}, 15*time.Millisecond, func() Load {
		return Load{ActiveSessions: srv.ActiveSessions()}
	})
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	return &clusterNode{id: id, srv: srv, ln: ln, agent: agent}
}

// TestFailoverEndToEnd is the acceptance test for the cluster control
// plane: a coordinator and two servers, the session's server killed
// mid-stream, the client's progressive transmission finishing on the
// survivor, and the coordinator's /metrics reporting the node death and
// the failover.
func TestFailoverEndToEnd(t *testing.T) {
	coord := NewCoordinator(Config{
		SuspectAfter: 60 * time.Millisecond,
		DeadAfter:    150 * time.Millisecond,
	})
	reg := metrics.New()
	coord.EnableMetrics(reg)
	msrv, err := metrics.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer msrv.Close()

	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(cl)
	defer coord.Shutdown(time.Second)
	stopTicker := coord.StartTicker(20 * time.Millisecond)
	defer stopTicker()

	nodes := map[string]*clusterNode{}
	for _, id := range []string{"node-a", "node-b"} {
		n := startClusterNode(t, cl.Addr().String(), id)
		nodes[id] = n
		defer n.srv.Shutdown(0)
		defer n.agent.Close(false)
	}

	r := NewResolver(cl.Addr().String(), time.Second)
	defer r.Close()

	// Kill the serving node just before round 3 of 8 — mid-stream, with
	// increments already delivered and more outstanding.
	var fc *FailoverClient
	var killOnce sync.Once
	hook := func(img, round int) {
		if round == 3 {
			killOnce.Do(func() { nodes[fc.Node()].kill() })
		}
	}
	fc, err = DialFailover(r, avis.Params{DR: 32, Codec: "lzw", Level: 4},
		WithIOTimeout(2*time.Second), WithRoundHook(hook),
		WithSessionDemand(0.2, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	fc.EnableMetrics(reg)
	victim := fc.Node()

	canvas, err := wavelet.NewCanvas(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := fc.FetchImage(0, canvas)
	if err != nil {
		t.Fatalf("fetch across failover: %v", err)
	}
	if st.Rounds != 8 {
		t.Fatalf("rounds %d, want 8", st.Rounds)
	}
	if fc.Failovers() != 1 {
		t.Fatalf("failovers %d, want 1", fc.Failovers())
	}
	if fc.Node() == victim {
		t.Fatalf("still on the dead node %s", victim)
	}
	// The replayed stream must still assemble a coherent pyramid.
	if _, err := canvas.Reconstruct(4); err != nil {
		t.Fatalf("reconstruction after failover: %v", err)
	}

	// A second image fetch on the surviving connection needs no failover.
	if _, err := fc.FetchImage(1, nil); err != nil {
		t.Fatal(err)
	}
	if fc.Failovers() != 1 {
		t.Fatalf("failovers %d after healthy fetch", fc.Failovers())
	}

	// The coordinator's exported telemetry must report the death (once the
	// detector's deadline passes) and the failover.
	url := fmt.Sprintf("http://%s/metrics", msrv.Addr)
	deadline := time.Now().Add(5 * time.Second)
	for {
		body := httpGet(t, url)
		if strings.Contains(body, "cluster_node_deaths_total 1") &&
			strings.Contains(body, "cluster_failovers_total 1") &&
			strings.Contains(body, `cluster_nodes{state="dead"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never reported the failure:\n%s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The client's own counter agrees.
	if !strings.Contains(httpGet(t, url), "avis_failovers_total 1") {
		t.Fatal("client failover counter missing")
	}
}

// TestFailoverShapedConnMetrics: under WithBandwidth the shaped data
// connection's netem_conn_* families are exported, and the replacement
// connection a failover dials keeps adding to them: a fetch that runs
// wholly on the replacement moves the counter.
func TestFailoverShapedConnMetrics(t *testing.T) {
	coord := NewCoordinator(Config{
		SuspectAfter: 60 * time.Millisecond,
		DeadAfter:    150 * time.Millisecond,
	})
	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(cl)
	defer coord.Shutdown(time.Second)
	stopTicker := coord.StartTicker(20 * time.Millisecond)
	defer stopTicker()
	nodes := map[string]*clusterNode{}
	for _, id := range []string{"node-a", "node-b"} {
		n := startClusterNode(t, cl.Addr().String(), id)
		nodes[id] = n
		defer n.srv.Shutdown(0)
		defer n.agent.Close(false)
	}
	r := NewResolver(cl.Addr().String(), time.Second)
	defer r.Close()

	reg := metrics.New()
	msrv, err := metrics.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer msrv.Close()
	url := fmt.Sprintf("http://%s/metrics", msrv.Addr)
	shaped := func() int {
		for _, line := range strings.Split(httpGet(t, url), "\n") {
			var n int
			if _, err := fmt.Sscanf(line, "netem_conn_bytes_shaped_total %d", &n); err == nil {
				return n
			}
		}
		t.Fatal("netem_conn_bytes_shaped_total is not exported")
		return 0
	}

	var fc *FailoverClient
	var killOnce sync.Once
	first := 0 // what the first connection wrote before its node died
	hook := func(img, round int) {
		if round == 3 {
			killOnce.Do(func() {
				first = shaped()
				nodes[fc.Node()].kill()
			})
		}
	}
	fc, err = DialFailover(r, avis.Params{DR: 32, Codec: "lzw", Level: 4},
		WithIOTimeout(2*time.Second), WithRoundHook(hook), WithBandwidth(50e6))
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	fc.EnableMetrics(reg)
	if _, err := fc.FetchImage(0, nil); err != nil {
		t.Fatalf("fetch across failover: %v", err)
	}
	if fc.Failovers() != 1 {
		t.Fatalf("failovers %d, want 1", fc.Failovers())
	}
	before := shaped()
	if _, err := fc.FetchImage(1, nil); err != nil {
		t.Fatal(err)
	}
	if after := shaped(); first == 0 || after <= before {
		t.Fatalf("netem_conn_bytes_shaped_total %d before the failover, %d after it, %d after a fetch on the replacement: want both connections counted",
			first, before, after)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFailoverExhaustsCluster verifies the bounded-retry path: with every
// node dead, the fetch fails with a placement error instead of hanging.
func TestFailoverExhaustsCluster(t *testing.T) {
	coord := NewCoordinator(Config{
		SuspectAfter: 60 * time.Millisecond,
		DeadAfter:    150 * time.Millisecond,
	})
	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(cl)
	defer coord.Shutdown(time.Second)

	n := startClusterNode(t, cl.Addr().String(), "only")
	defer n.srv.Shutdown(0)
	defer n.agent.Close(false)

	r := NewResolver(cl.Addr().String(), time.Second)
	defer r.Close()

	var fc *FailoverClient
	var killOnce sync.Once
	fc, err = DialFailover(r, avis.Params{DR: 32, Codec: "lzw", Level: 4},
		WithIOTimeout(time.Second),
		WithRoundHook(func(img, round int) {
			if round == 2 {
				killOnce.Do(func() { n.kill() })
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	if _, err := fc.FetchImage(0, nil); err == nil {
		t.Fatal("fetch succeeded with the whole cluster dead")
	} else if !strings.Contains(err.Error(), "failover") {
		t.Fatalf("unexpected error: %v", err)
	}
}
