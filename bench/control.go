package main

import (
	"fmt"
	"net"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/cluster"
	"tunable/internal/metrics"
)

// Shape of the control-plane workload.
const (
	ctlShards    = 16
	ctlNodes     = 2000 // registered in-process
	ctlAgents    = 8    // real agents heartbeating over TCP
	ctlHeartbeat = 50 * time.Millisecond
	ctlSessions  = 512 // rotating session ids per resolver
)

// controlFixture is a coordinator on a loopback listener with its fleet.
type controlFixture struct {
	coord      *cluster.Coordinator
	ln         net.Listener
	served     chan struct{}
	stopTicker func()
	agents     []*cluster.Agent
	resolvers  []*cluster.Resolver
	registered map[string]bool
}

func ctlNode(id string) cluster.NodeInfo {
	return cluster.NodeInfo{ID: id, Addr: "10.0.0.1:7465", CPU: 1, Side: imgSide, Levels: imgLevels, Seeds: imgSeeds}
}

// startControl builds the whole fixture. reg, when non-nil, instruments the
// coordinator (the traced run reads its heartbeat counter).
func startControl(nodes, resolvers int, reg *metrics.Registry) (*controlFixture, error) {
	f := &controlFixture{served: make(chan struct{}), registered: map[string]bool{}}
	// Only the 8 agents heartbeat; the deadlines are out of reach so the
	// silent in-process nodes stay alive for placement.
	f.coord = cluster.NewCoordinator(cluster.Config{Shards: ctlShards, SuspectAfter: time.Hour, DeadAfter: 2 * time.Hour})
	if reg != nil {
		f.coord.EnableMetrics(reg)
	}
	for i := 0; i < nodes; i++ {
		n := ctlNode(fmt.Sprintf("node-%04d", i))
		if err := f.coord.Register(n); err != nil {
			return nil, fmt.Errorf("register %s: %w", n.ID, err)
		}
		f.registered[n.ID] = true
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("coordinator listener: %w", err)
	}
	f.ln = ln
	go func() {
		defer close(f.served)
		_ = f.coord.Serve(ln) // returns once Shutdown closes the listener
	}()
	f.stopTicker = f.coord.StartTicker(100 * time.Millisecond)
	for i := 0; i < ctlAgents; i++ {
		n := ctlNode(fmt.Sprintf("agent-%d", i))
		a := cluster.NewAgent(ln.Addr().String(), n, ctlHeartbeat, nil)
		if err := a.Start(); err != nil {
			f.stop()
			return nil, fmt.Errorf("agent %s: %w", n.ID, err)
		}
		f.agents = append(f.agents, a)
		f.registered[n.ID] = true
	}
	for i := 0; i < resolvers; i++ {
		r := cluster.NewResolver(ln.Addr().String(), 10*time.Second)
		f.resolvers = append(f.resolvers, r)
		// one call, so the control connection is dialled and negotiated
		if _, err := r.Nodes(); err != nil {
			f.stop()
			return nil, fmt.Errorf("resolver connect: %w", err)
		}
	}
	return f, nil
}

func (f *controlFixture) stop() {
	for _, r := range f.resolvers {
		r.Close()
	}
	for _, a := range f.agents {
		a.Close(true)
	}
	f.stopTicker()
	f.coord.Shutdown(2 * time.Second)
	<-f.served
}

// sessions counts the sessions the coordinator still holds.
func (f *controlFixture) sessions() int {
	n := 0
	for _, st := range f.coord.Nodes() {
		n += st.Sessions
	}
	return n
}

// resolverClient is one closed-loop client: resolve, then end, over its
// rotating session ids.
type resolverClient struct {
	tally
	r    *cluster.Resolver
	sids []string
	next int
}

func newResolverClient(r *cluster.Resolver, seed int64, client int) *resolverClient {
	c := &resolverClient{r: r, sids: make([]string, ctlSessions)}
	for i := range c.sids {
		// The seed names the sessions, and so picks their shards.
		c.sids[i] = fmt.Sprintf("s%d-c%d-%03d", seed, client, i)
	}
	return c
}

func (c *resolverClient) pairs(n int, registered map[string]bool) {
	for k := 0; k < n; k++ {
		sid := c.sids[c.next%len(c.sids)]
		c.next++
		t0 := time.Now()
		g, err := c.r.Resolve(cluster.ResolveRequest{SID: sid})
		d := time.Since(t0)
		c.attempted++
		if err != nil || !registered[g.NodeID] {
			c.failed++
			if err != nil {
				continue // nothing was placed, so there is nothing to end
			}
		}
		if err := c.r.EndSession(sid); err != nil {
			c.failed++
			continue
		}
		if registered[g.NodeID] {
			c.ops = append(c.ops, ms(d))
			c.units = append(c.units, ms(time.Since(t0)))
		}
	}
}

func runControlResolve(rc *runCtx) (*result, error) {
	res := &result{}
	clients := nClients
	var reg *metrics.Registry
	if rc.trace {
		clients = 1
		reg = metrics.New()
	}
	nodes := rc.scale(ctlNodes, 50)
	var fx *controlFixture
	teardown, err := res.timeSetup(rc, func() (func(), error) {
		f, err := startControl(nodes, clients, reg)
		if err != nil {
			return nil, err
		}
		fx = f
		return f.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()

	rcs := make([]*resolverClient, clients)
	for i := range rcs {
		rcs[i] = newResolverClient(fx.resolvers[i], rc.seed, i)
		rcs[i].ops = make([]float64, 0, 1<<20)
		rcs[i].units = make([]float64, 0, 1<<20)
	}
	perPass := rc.scale(8000, 30)
	tallies := make([]*tally, len(rcs))
	for i, c := range rcs {
		tallies[i] = &c.tally
	}
	pass := func() int {
		return res.passOf(tallies, func(i int) { rcs[i].pairs(perPass, fx.registered) })
	}
	pass() // warm-up: pools, connection buffers, every session id seen once
	res.ops, res.units = res.ops[:0], res.units[:0]
	drained := func() {
		if n := fx.sessions(); n != 0 {
			res.failed++
			res.problemf("coordinator still holds %d sessions after every one was ended", n)
		}
	}

	if !rc.trace {
		res.measure(rc, 3, pass)
		drained()
		return res, nil
	}

	// Traced run: reference passes; then the same number of pairs over TCP
	// with a span each, back to back; then the same calls made in-process
	// on the coordinator as their shadow.
	res.measure(rc.quarter(), 1, pass)
	untraced := median(res.units)
	pairs := len(res.units)
	c := rcs[0]
	rec := newRecorder()
	heartbeats := reg.Counter("cluster_shard_ops_total", "", metrics.L("op", "delta_batch"))
	hb0 := heartbeats.Value()
	var spans []int
	for k := 0; k < pairs; k++ {
		sid := c.sids[k%len(c.sids)]
		res.attempted++
		// "resolve" is a root span beside "pair", not its child: the pair's
		// only child is the in-process shadow, so its self time is the RPC.
		pair := rec.begin("pair", -1, k)
		var g cluster.ResolveGrant
		var err error
		rec.time("resolve", -1, k, func() { g, err = c.r.Resolve(cluster.ResolveRequest{SID: sid}) })
		if err == nil {
			err = c.r.EndSession(sid)
		}
		rec.end(pair)
		if err != nil || !fx.registered[g.NodeID] {
			res.failed++
			return res, fmt.Errorf("traced pair: grant %q, error %v", g.NodeID, err)
		}
		spans = append(spans, pair)
	}
	hb := heartbeats.Value() - hb0
	for k, pair := range spans {
		sid := c.sids[k%len(c.sids)]
		var err error
		rec.time("cluster.resolve_inproc", pair, k, func() {
			if _, err = fx.coord.Resolve(cluster.ResolveRequest{SID: sid}); err == nil {
				fx.coord.EndSession(sid)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("in-process resolve: %w", err)
		}
	}
	drained()

	L := map[string]float64{}
	L["cluster.resolve_inproc_us"] = rec.medianNS("cluster.resolve_inproc") / 1e3
	L["cluster.rpc_overhead_us"] = median(rec.selfTimes("pair", shadowSelfTime)) / 1e3
	L["cluster.resolve_p99_us"] = quantile(sortedCopy(rec.durations("resolve")), 0.99) / 1e3
	L["cluster.heartbeats"] = hb
	L["trace.overhead_ratio"] = rec.medianNS("pair") / 1e6 / untraced
	res.runtimeLayers(L)
	if err := controlProbes(L, fx.coord); err != nil {
		return nil, err
	}
	if err := wireProbes(L); err != nil {
		return nil, err
	}
	res.layers, res.rec = L, rec
	return res, nil
}

// controlProbes times the coordinator calls that run beside the resolves.
func controlProbes(L map[string]float64, coord *cluster.Coordinator) error {
	sid := "probe-session"
	var err error
	L["cluster.allocs_per_resolve"] = allocsPer(2000, func() {
		if _, rerr := coord.Resolve(cluster.ResolveRequest{SID: sid}); rerr != nil {
			err = rerr
			return
		}
		coord.EndSession(sid)
	})
	if err != nil {
		return fmt.Errorf("coordinator probe: %w", err)
	}

	// A heartbeat batch of 64 nodes, each reporting one session more and
	// then one less, so the registry ends where it started.
	up, down := make([]cluster.DeltaEntry, 64), make([]cluster.DeltaEntry, 64)
	for i := range up {
		id := fmt.Sprintf("node-%04d", i)
		up[i], down[i] = cluster.DeltaEntry{ID: id, Sessions: 1}, cluster.DeltaEntry{ID: id, Sessions: -1}
	}
	L["cluster.apply_deltas_ns_per_entry"] = nsPer(500, func() {
		coord.ApplyDeltas(up)
		coord.ApplyDeltas(down)
	}) / float64(2*len(up))
	L["cluster.encode_delta_ns_per_entry"] = nsPer(2000, func() {
		b, eerr := cluster.EncodeDeltaBatch(up)
		if eerr != nil {
			err = eerr
			return
		}
		bufpool.Put(b)
	}) / float64(len(up))
	if err != nil {
		return fmt.Errorf("delta probe: %w", err)
	}

	i := 0
	L["cluster.register_us"] = nsPer(200, func() {
		n := ctlNode(fmt.Sprintf("probe-%05d", i))
		i++
		if rerr := coord.Register(n); rerr != nil {
			err = rerr
		}
	}) / 1e3
	for k := 0; k < i; k++ {
		coord.Deregister(fmt.Sprintf("probe-%05d", k))
	}
	if err != nil {
		return fmt.Errorf("register probe: %w", err)
	}
	L["cluster.tick_us"] = nsPer(200, coord.Tick) / 1e3
	return nil
}

// wireProbes times one control-sized frame written and read back on a
// negotiated loopback pair.
func wireProbes(L map[string]float64) error {
	s := &shadow{}
	if err := s.dialPair(); err != nil {
		return err
	}
	defer s.close()
	L["wire.negotiate_us"] = s.negotiateNS / 1e3
	msg := make([]byte, 48) // about the size of a schema-encoded resolve
	msg[0] = 'r'
	var writes, reads []float64
	for i := 0; i < 4000; i++ {
		t0 := time.Now()
		if err := s.tx.WriteMsg(msg); err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
		t1 := time.Now()
		m, err := s.rx.ReadMsg()
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
		bufpool.Put(m)
		writes = append(writes, float64(t1.Sub(t0)))
		reads = append(reads, float64(t2.Sub(t1)))
	}
	L["wire.write_frame_ns"] = median(writes)
	L["wire.read_frame_ns"] = median(reads)
	L["wire.frames_per_round"] = 2 // a control call is one request frame and one reply frame
	allocs, err := s.frameAllocs()
	if err != nil {
		return err
	}
	L["wire.allocs_per_frame"] = allocs
	return nil
}
