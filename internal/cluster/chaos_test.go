package cluster

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tunable/internal/avis"
	"tunable/internal/faults"
	"tunable/internal/metrics"
	"tunable/internal/wavelet"
)

// startChaosNode is startClusterNode with the node's control plane routed
// through the fault injector under the label "ctrl:<id>".
func startChaosNode(t *testing.T, in *faults.Injector, coordAddr, id string, reg *metrics.Registry) *clusterNode {
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
	agent.EnableMetrics(reg)
	agent.SetRetryPolicy(2, Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, Factor: 2}, nil)
	agent.SetDialer(func(network, addr string, timeout time.Duration) (net.Conn, error) {
		return in.Dial("ctrl:"+id, network, addr, timeout)
	})
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	return &clusterNode{id: id, srv: srv, ln: ln, agent: agent}
}

// chaosSchedule scripts the acceptance scenario: a 2 s asymmetric
// control-plane partition (the coordinator cannot hear any node; the
// client still reaches the coordinator), one slow node, a connection
// reset on the session's data conn once the partition has healed, and a
// 10% loss window right after. The reset and loss instants sit after the
// partition so failover re-resolves land on nodes the detector has
// already revived; the loss window is no longer than the client's
// per-frame progress deadline, so a replacement handshake can never start
// inside the window that killed its predecessor. Pure function of the
// seed — same seed, same fault sequence.
func chaosSchedule(seed uint64) faults.Schedule {
	return faults.NewSchedule(seed,
		faults.Event{At: 0, Duration: 2 * time.Second, Kind: faults.Partition, Target: "ctrl:node-"},
		faults.Event{At: 0, Duration: 6 * time.Second, Kind: faults.Latency, Target: "data:node-c", Delay: 10 * time.Millisecond},
		faults.Event{At: 2500 * time.Millisecond, Kind: faults.Reset, Target: "data:"},
		faults.Event{At: 2800 * time.Millisecond, Duration: 400 * time.Millisecond, Kind: faults.Drop, Target: "data:", Rate: 0.10},
	)
}

// TestChaosFetchSurvivesFaults is the fault-injection acceptance test: a
// seeded schedule of partition + loss + reset + slow node against a live
// cluster, with the progressive image fetch finishing byte-identical to a
// fault-free reference and every resilience counter lighting up.
func TestChaosFetchSurvivesFaults(t *testing.T) {
	const seed = 20260806

	// Same seed, same fault script: the schedule is a pure function of its
	// inputs, so a failing run replays exactly from the seed.
	if !reflect.DeepEqual(chaosSchedule(seed), chaosSchedule(seed)) {
		t.Fatal("chaos schedule is not reproducible from its seed")
	}

	reg := metrics.New()
	coord := NewCoordinator(Config{
		SuspectAfter: 500 * time.Millisecond,
		// Longer than the partition: silenced nodes go suspect, not dead,
		// so the asymmetric partition does not amputate the data plane.
		DeadAfter: 10 * time.Second,
	})
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
	stopTicker := coord.StartTicker(50 * time.Millisecond)
	defer stopTicker()

	// One injector wraps every connection in the test — agents, resolver,
	// and data plane — from the moment each is dialed. It stays inert
	// until Start, so the reference run flows through identical plumbing
	// with no faults.
	injector, err := faults.New(chaosSchedule(seed))
	if err != nil {
		t.Fatal(err)
	}
	injector.EnableMetrics(reg)

	for _, id := range []string{"node-a", "node-b", "node-c"} {
		n := startChaosNode(t, injector, cl.Addr().String(), id, reg)
		defer n.srv.Shutdown(0)
		defer n.agent.Close(false)
	}

	r := NewResolver(cl.Addr().String(), time.Second)
	defer r.Close()
	r.EnableMetrics(reg)
	r.cl.setRetryPolicy(3, Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Factor: 2}, nil)
	r.SetDialer(func(network, addr string, timeout time.Duration) (net.Conn, error) {
		return injector.Dial("ctrl:client", network, addr, timeout)
	})

	// The round hook stretches the chaos fetch across the scripted fault
	// instants; during the reference run it does nothing.
	var chaosPhase atomic.Bool
	fc, err := DialFailover(r, avis.Params{DR: 32, Codec: "lzw", Level: 4},
		WithIOTimeout(400*time.Millisecond),
		WithFailoverBackoff(Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond, Factor: 2, Jitter: 0.5}),
		WithRetryBudget(NewRetryBudget(20, 0)),
		WithMaxFailovers(4),
		WithRoundHook(func(img, round int) {
			if chaosPhase.Load() && (round == 1 || round == 3) {
				time.Sleep(300 * time.Millisecond)
			}
		}),
		WithDialer(func(nodeID, addr string, timeout time.Duration) (net.Conn, error) {
			return injector.Dial("data:"+nodeID, "tcp", addr, timeout)
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	fc.EnableMetrics(reg)

	// Reference run: injector not yet started, no faults.
	refCanvas, err := wavelet.NewCanvas(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.FetchImage(0, refCanvas); err != nil {
		t.Fatalf("reference fetch: %v", err)
	}
	ref, err := refCanvas.Reconstruct(4)
	if err != nil {
		t.Fatal(err)
	}

	// Arm the schedule. The partition silences every node for 2 s
	// (heartbeats fail, the detector marks them suspect); once it heals
	// the heartbeats revive them, and the reset + loss window then hit the
	// in-flight fetch.
	injector.Start()
	time.Sleep(2300 * time.Millisecond) // ride out the partition
	chaosPhase.Store(true)

	chaosCanvas, err := wavelet.NewCanvas(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.FetchImage(0, chaosCanvas); err != nil {
		t.Fatalf("chaos fetch: %v (fault log: %v)", err, injector.Log())
	}
	chaos, err := chaosCanvas.Reconstruct(4)
	if err != nil {
		t.Fatal(err)
	}

	// Byte-identical output: a failed round applies nothing to the canvas,
	// so replayed rounds reproduce the reference exactly.
	if ref.Side != chaos.Side || !reflect.DeepEqual(ref.Pix, chaos.Pix) {
		t.Fatalf("chaos output differs from fault-free reference (faults: %v)", injector.Log())
	}

	// The faults really fired and the resilience paths really ran.
	if len(injector.Log()) == 0 {
		t.Fatal("no faults injected")
	}
	if fc.Retries() == 0 {
		t.Fatalf("no rounds retried under the scripted reset (fault log: %v)", injector.Log())
	}
	if fc.Failovers() == 0 {
		t.Fatalf("session never failed over (fault log: %v)", injector.Log())
	}
	deadline := time.Now().Add(5 * time.Second)
	var body string
	for {
		body = httpGet(t, fmt.Sprintf("http://%s/metrics", msrv.Addr))
		if strings.Contains(body, `faults_injected_total{kind="reset"}`) &&
			strings.Contains(body, "avis_round_retries_total") &&
			strings.Contains(body, "cluster_heartbeat_failures_total") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never exposed the chaos counters:\n%s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, metric := range []string{"faults_injected_total", "avis_round_retries_total", "cluster_heartbeat_failures_total"} {
		if !counterNonzero(body, metric) {
			t.Errorf("%s is zero after the chaos run:\n%s", metric, body)
		}
	}
}

// counterNonzero reports whether any sample of the named metric family in
// a /metrics exposition has a value greater than zero.
func counterNonzero(body, name string) bool {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[1] != "0" {
			return true
		}
	}
	return false
}
