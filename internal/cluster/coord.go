package cluster

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/metrics"
	"tunable/internal/perfstore"
	"tunable/internal/resource"
	"tunable/internal/sandbox"
	"tunable/internal/scheduler"
	"tunable/internal/vtime"
	"tunable/internal/wire"
)

// Config tunes a Coordinator.
type Config struct {
	// SuspectAfter / DeadAfter are the failure detector's deadlines
	// (defaults DefaultSuspectAfter / DefaultDeadAfter).
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// Now is the injected clock (monotone duration on any epoch); defaults
	// to wall time since construction. Tests drive it directly.
	Now func() time.Duration
	// IOTimeout is the per-frame progress deadline on control
	// connections; 0 (the default) waits forever, since heartbeat
	// connections are idle between beats.
	IOTimeout time.Duration
	// Shards is the number of registry/session shards (rounded up to a
	// power of two; 0 picks a default scaled to GOMAXPROCS). Node and
	// session state is partitioned by fnv-1a hash of the ID, each shard
	// with its own lock, failure-detector timer wheel, and admission
	// state, so control-plane ops on different shards never contend.
	Shards int
}

const (
	// commitThreshold is the net-delta commit threshold for hot shard-local
	// counters: per-op telemetry increments accumulate unshared under the
	// shard lock and commit to the shared counter only when the pending net
	// delta reaches this many ops (or on the next detector tick, which
	// flushes the remainder). The VSA-vs-atomic-vs-batching harness in
	// counter_bench_test.go measures why: see BENCH_control.json.
	commitThreshold = 64
	// placeSample bounds how many candidates a placement gathers before
	// sorting: at fleet scale scanning every node per resolve would make
	// placement O(nodes). Small clusters are always scanned completely (the
	// sample covers them), and a sampled placement that finds no admissible
	// node falls back to one exhaustive scan before refusing.
	placeSample = 64
)

// pending is a thresholded net-delta commit accumulator (the "VSA" design
// from the counter harness): adds coalesce into a local float under the
// owning shard's lock and flush into the shared counter in one Add.
type pending struct {
	n    float64
	sink *metrics.Counter
}

func (p *pending) add(n float64) {
	p.n += n
	if p.n >= commitThreshold {
		p.flush()
	}
}

func (p *pending) flush() {
	if p.n != 0 {
		p.sink.Add(p.n)
		p.n = 0
	}
}

// node is one registry entry.
type node struct {
	info NodeInfo
	sig  string
	load Load
	host *sandbox.Host
	// resv indexes the reservations placed on this node by session ID —
	// the shard-local inverse of the session table, so orphaning a dead
	// node's sessions is O(its sessions), not O(all sessions).
	resv map[string]*scheduler.Reservation
}

// session is one placed client session.
type session struct {
	id     string
	nodeID string // "" while orphaned (its node died, awaiting failover)
	res    *scheduler.Reservation
	placed bool // ever successfully placed; a later re-place is a failover
}

// orphanRef records a reservation released while tearing down a node; the
// owning session record (in a different shard) is detached afterwards.
type orphanRef struct {
	sid string
	res *scheduler.Reservation
}

// nodeShard is one partition of the registry: nodes whose ID hashes here,
// their failure-detector timer wheel, and the admission state for their
// hosts. All fields are guarded by mu; read-heavy paths (candidate scans,
// registry listings) take it shared.
type nodeShard struct {
	mu    sync.RWMutex
	det   *Detector
	adm   *scheduler.Admission
	nodes map[string]*node

	// Hot-path telemetry under thresholded net-delta commits (flushed by
	// Tick); guarded by mu like the rest of the shard.
	pendBeats  pending // cluster_heartbeats_total
	pendBeatOp pending // cluster_shard_ops_total{op="heartbeat"}
}

// sessionShard is one partition of the session table.
type sessionShard struct {
	mu       sync.Mutex
	sessions map[string]*session
}

// Coordinator owns the cluster registry, failure detector, and
// admission-controlled placement. State is partitioned into power-of-two
// shards (nodes and sessions hashed separately), each with its own lock,
// so registry ops scale with cores instead of serializing on one mutex;
// the network front end (Serve) and the detector pump (Tick) are thin
// shells over the sharded core, so the coordinator can also be driven
// entirely in-process by tests and by cmd/avis-load.
//
// Lock order: a session shard's lock may be held while taking a node
// shard's lock (placement, release), never the reverse — node-side
// teardown collects orphaned reservations under the node lock and
// detaches the session records after releasing it.
type Coordinator struct {
	cfg  Config
	mask uint32

	nshards []*nodeShard
	sshards []*sessionShard

	sim       *vtime.Sim   // host factory bookkeeping only; never run
	nSessions atomic.Int64 // session count across shards
	rot       atomic.Uint32

	accept wire.Acceptor // control connections

	// perfMu guards perf, the optional shared performance store nodes feed
	// telemetry into and clients fetch refined profiles from.
	perfMu sync.RWMutex
	perf   *perfstore.PerfStore

	// telemetry instruments; nil (no-op) unless EnableMetrics ran
	mNodesAlive    *metrics.Gauge
	mNodesSuspect  *metrics.Gauge
	mNodesDead     *metrics.Gauge
	mSessions      *metrics.Gauge
	mRegistrations *metrics.Counter
	mHeartbeats    *metrics.Counter
	mHeartbeatGap  *metrics.Histogram
	mNodeDeaths    *metrics.Counter
	mFailovers     *metrics.Counter
	mResolves      *metrics.Counter
	mNoCapacity    *metrics.Counter

	mOpRegister   *metrics.Counter
	mOpDeregister *metrics.Counter
	mOpResolve    *metrics.Counter
	mOpEndSession *metrics.Counter
	mOpDeltaBatch *metrics.Counter
	mBatchSize    *metrics.Histogram
	mPlaceLatency *metrics.Histogram
	wInst         wire.Instruments
}

// defaultShards picks the shard count for Config.Shards == 0: enough
// partitions that independent cores rarely collide (4× GOMAXPROCS), at
// least 8 so single-core builds still exercise the sharded paths.
func defaultShards() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return n
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// fnvHash is FNV-1a over the ID, the shard key.
func fnvHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func fnvHashBytes(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// NewCoordinator creates an empty coordinator.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.Now == nil {
		start := time.Now()
		cfg.Now = func() time.Duration { return time.Since(start) }
	}
	n := cfg.Shards
	if n <= 0 {
		n = defaultShards()
	}
	n = ceilPow2(n)
	if n > 1024 {
		n = 1024
	}
	c := &Coordinator{
		cfg:     cfg,
		mask:    uint32(n - 1),
		nshards: make([]*nodeShard, n),
		sshards: make([]*sessionShard, n),
		sim:     vtime.NewSim(),
	}
	for i := range c.nshards {
		c.nshards[i] = &nodeShard{
			det:   NewDetector(cfg.SuspectAfter, cfg.DeadAfter),
			adm:   scheduler.NewAdmission(),
			nodes: make(map[string]*node),
		}
		c.sshards[i] = &sessionShard{sessions: make(map[string]*session)}
	}
	return c
}

func (c *Coordinator) nodeShardFor(id string) *nodeShard {
	return c.nshards[fnvHash(id)&c.mask]
}

func (c *Coordinator) sessionShardFor(sid string) *sessionShard {
	return c.sshards[fnvHash(sid)&c.mask]
}

// Shards reports the coordinator's shard count.
func (c *Coordinator) Shards() int { return len(c.nshards) }

// EnableMetrics instruments the coordinator. Metric families:
// cluster_nodes (gauge, labeled state=alive|suspect|dead),
// cluster_sessions, cluster_registrations_total,
// cluster_heartbeats_total, cluster_heartbeat_gap_seconds (inter-arrival
// gap per heartbeat — the quantity the deadline detector thresholds),
// cluster_node_deaths_total, cluster_failovers_total (sessions re-placed
// after their node failed), cluster_resolves_total,
// cluster_no_capacity_total, cluster_shard_ops_total (labeled by op —
// register|heartbeat|deregister|resolve|end_session|delta_batch, a closed
// set), cluster_delta_batch_size (entries per delta frame), and
// cluster_placement_latency_seconds (wall time per placement decision);
// plus the scheduler's sched_admission_* families for the underlying
// reservations.
func (c *Coordinator) EnableMetrics(reg *metrics.Registry) {
	c.mNodesAlive = reg.Gauge("cluster_nodes", "Registered nodes by detector state.", metrics.L("state", "alive"))
	c.mNodesSuspect = reg.Gauge("cluster_nodes", "Registered nodes by detector state.", metrics.L("state", "suspect"))
	c.mNodesDead = reg.Gauge("cluster_nodes", "Registered nodes by detector state.", metrics.L("state", "dead"))
	c.mSessions = reg.Gauge("cluster_sessions", "Sessions currently placed or awaiting failover.")
	c.mRegistrations = reg.Counter("cluster_registrations_total", "Node registrations accepted (including rejoins).")
	c.mHeartbeats = reg.Counter("cluster_heartbeats_total", "Heartbeats accepted.")
	c.mHeartbeatGap = reg.Histogram("cluster_heartbeat_gap_seconds",
		"Gap between successive heartbeats of a node.")
	c.mNodeDeaths = reg.Counter("cluster_node_deaths_total", "Nodes declared dead by the failure detector.")
	c.mFailovers = reg.Counter("cluster_failovers_total", "Sessions re-placed onto a replacement node.")
	c.mResolves = reg.Counter("cluster_resolves_total", "Session placement requests served.")
	c.mNoCapacity = reg.Counter("cluster_no_capacity_total", "Placements refused for lack of admissible capacity.")
	const opsHelp = "Registry operations applied, by op (shard-local)."
	c.mOpRegister = reg.Counter("cluster_shard_ops_total", opsHelp, metrics.L("op", "register"))
	c.mOpDeregister = reg.Counter("cluster_shard_ops_total", opsHelp, metrics.L("op", "deregister"))
	c.mOpResolve = reg.Counter("cluster_shard_ops_total", opsHelp, metrics.L("op", "resolve"))
	c.mOpEndSession = reg.Counter("cluster_shard_ops_total", opsHelp, metrics.L("op", "end_session"))
	c.mOpDeltaBatch = reg.Counter("cluster_shard_ops_total", opsHelp, metrics.L("op", "delta_batch"))
	heartbeatOps := reg.Counter("cluster_shard_ops_total", opsHelp, metrics.L("op", "heartbeat"))
	c.mBatchSize = reg.Histogram("cluster_delta_batch_size", "Entries per heartbeat delta batch.")
	c.mPlaceLatency = reg.Histogram("cluster_placement_latency_seconds",
		"Wall time per placement decision (Resolve).")
	c.wInst = wire.NewInstruments(reg)
	// Per-state gauges are maintained incrementally from here on; seed them
	// (and the hot-counter sinks) with the current registry contents.
	var alive, suspect, dead float64
	for _, ns := range c.nshards {
		ns.mu.Lock()
		for id := range ns.nodes {
			switch st, _ := ns.det.State(id); st {
			case StateAlive:
				alive++
			case StateSuspect:
				suspect++
			case StateDead:
				dead++
			}
		}
		ns.pendBeats = pending{sink: c.mHeartbeats}
		ns.pendBeatOp = pending{sink: heartbeatOps}
		ns.adm.EnableMetrics(reg)
		ns.mu.Unlock()
	}
	c.mNodesAlive.Set(alive)
	c.mNodesSuspect.Set(suspect)
	c.mNodesDead.Set(dead)
	c.mSessions.Set(float64(c.nSessions.Load()))
}

// gaugeFor maps a detector state to its cluster_nodes gauge.
func (c *Coordinator) gaugeFor(st NodeState) *metrics.Gauge {
	switch st {
	case StateAlive:
		return c.mNodesAlive
	case StateSuspect:
		return c.mNodesSuspect
	default:
		return c.mNodesDead
	}
}

// releaseNodeLocked releases every reservation placed on n and returns
// the orphan refs so the caller can detach the session records once the
// shard lock is dropped; callers hold the node shard's lock.
func releaseNodeLocked(n *node) []orphanRef {
	if len(n.resv) == 0 {
		return nil
	}
	orphans := make([]orphanRef, 0, len(n.resv))
	for sid, res := range n.resv {
		res.Release()
		orphans = append(orphans, orphanRef{sid: sid, res: res})
	}
	n.resv = make(map[string]*scheduler.Reservation)
	return orphans
}

// detachSessions marks orphaned sessions for failover. Called with no
// locks held; each session record is detached only if it still points at
// the released reservation, so a placement that already moved the session
// elsewhere is left alone.
func (c *Coordinator) detachSessions(orphans []orphanRef) {
	for _, o := range orphans {
		ss := c.sessionShardFor(o.sid)
		ss.mu.Lock()
		if s := ss.sessions[o.sid]; s != nil && s.res == o.res {
			s.res = nil
			s.nodeID = ""
		}
		ss.mu.Unlock()
	}
}

// Register admits a node into the registry (or re-admits a restarted or
// previously dead one — the rejoin path). Re-registration orphans any
// sessions still placed on the node: their reservations are released and
// their next resolve is treated as a failover.
func (c *Coordinator) Register(info NodeInfo) error {
	if info.ID == "" || info.Addr == "" {
		return fmt.Errorf("cluster: registration needs id and addr")
	}
	if info.CPU <= 0 || info.CPU > 1 {
		return fmt.Errorf("cluster: node %q declares CPU share %g outside (0,1]", info.ID, info.CPU)
	}
	mem := info.MemBytes
	if mem <= 0 {
		mem = 512 << 20
	}
	ns := c.nodeShardFor(info.ID)
	var orphans []orphanRef
	ns.mu.Lock()
	if old := ns.nodes[info.ID]; old != nil {
		orphans = releaseNodeLocked(old)
		ns.adm.RemoveHost(info.ID)
		if st, ok := ns.det.State(info.ID); ok {
			c.gaugeFor(st).Add(-1)
		}
		delete(ns.nodes, info.ID)
	}
	host := sandbox.NewHost(c.sim, info.ID, 1e9, sandbox.WithMemory(mem))
	if err := ns.adm.AddHost(host); err != nil {
		ns.mu.Unlock()
		c.detachSessions(orphans)
		return err
	}
	// The sandbox layer always admits up to MaxReservable (1.0); a node
	// declaring less carries a placeholder reservation for the difference.
	if info.CPU < sandbox.MaxReservable {
		if _, err := host.NewSandbox("!capacity", sandbox.MaxReservable-info.CPU, 0); err != nil {
			ns.adm.RemoveHost(info.ID)
			ns.mu.Unlock()
			c.detachSessions(orphans)
			return fmt.Errorf("cluster: capacity placeholder: %w", err)
		}
	}
	ns.nodes[info.ID] = &node{
		info: info, sig: info.StoreSig(), host: host,
		resv: make(map[string]*scheduler.Reservation),
	}
	ns.det.Register(info.ID, c.cfg.Now())
	ns.mu.Unlock()
	c.mNodesAlive.Add(1)
	c.mRegistrations.Inc()
	c.mOpRegister.Inc()
	c.detachSessions(orphans)
	return nil
}

// observeLocked applies one liveness observation (a heartbeat or a delta
// entry) to a node in ns; callers hold ns.mu. It settles the per-state
// gauges when the beat revives a suspect.
func (c *Coordinator) observeLocked(ns *nodeShard, id string) bool {
	gap, prev, ok := ns.det.Observe(id, c.cfg.Now())
	if !ok {
		return false
	}
	if prev == StateSuspect {
		c.mNodesSuspect.Add(-1)
		c.mNodesAlive.Add(1)
	}
	ns.pendBeats.add(1)
	ns.pendBeatOp.add(1)
	c.mHeartbeatGap.Observe(gap.Seconds())
	return true
}

// Heartbeat renews a node's lease and records its load. It reports
// whether the coordinator knows the node: false tells the agent to
// re-register (the coordinator restarted, or the node was declared dead).
func (c *Coordinator) Heartbeat(id string, load Load) bool {
	ns := c.nodeShardFor(id)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	n := ns.nodes[id]
	if n == nil || !c.observeLocked(ns, id) {
		return false
	}
	n.load = load
	return true
}

// ApplyDeltas applies one batch of coalesced heartbeat deltas: each entry
// renews its node's lease and folds the net session change into the
// node's load, shard-locally. It returns the IDs the coordinator refused
// (unknown or dead nodes) so the agent re-registers them and resends an
// absolute count. This is the in-process twin of the ctagDelta wire path
// — cmd/avis-load drives it directly.
func (c *Coordinator) ApplyDeltas(entries []DeltaEntry) (unknown []string) {
	var cur *nodeShard
	for _, e := range entries {
		ns := c.nodeShardFor(e.ID)
		if ns != cur {
			if cur != nil {
				cur.mu.Unlock()
			}
			ns.mu.Lock()
			cur = ns
		}
		if !c.applyDeltaLocked(ns, e.ID, e.Sessions) {
			unknown = append(unknown, e.ID)
		}
	}
	if cur != nil {
		cur.mu.Unlock()
	}
	c.mOpDeltaBatch.Inc()
	c.mBatchSize.Observe(float64(len(entries)))
	return unknown
}

// applyDeltaFrame is the wire twin of ApplyDeltas: it walks the binary
// frame without allocating (IDs index the registry map directly from the
// frame bytes) and answers with the refused IDs.
func (c *Coordinator) applyDeltaFrame(msg []byte) (ackMsg, error) {
	var unknown []string
	var cur *nodeShard
	count := 0
	err := forEachDelta(msg, func(id []byte, sessions int32) {
		count++
		ns := c.nshards[fnvHashBytes(id)&c.mask]
		if ns != cur {
			if cur != nil {
				cur.mu.Unlock()
			}
			ns.mu.Lock()
			cur = ns
		}
		if !c.applyDeltaLocked(ns, string(id), sessions) {
			unknown = append(unknown, string(id))
		}
	})
	if cur != nil {
		cur.mu.Unlock()
	}
	if err != nil {
		return ackMsg{}, err
	}
	c.mOpDeltaBatch.Inc()
	c.mBatchSize.Observe(float64(count))
	return ackMsg{OK: true, Unknown: unknown}, nil
}

// applyDeltaLocked applies one delta entry; callers hold ns.mu. The id is
// only used as a map key, so the zero-alloc string(bytes) lookup in the
// frame path stays zero-alloc.
func (c *Coordinator) applyDeltaLocked(ns *nodeShard, id string, sessions int32) bool {
	n := ns.nodes[id]
	if n == nil || !c.observeLocked(ns, id) {
		return false
	}
	n.load.ActiveSessions += int(sessions)
	if n.load.ActiveSessions < 0 {
		n.load.ActiveSessions = 0
	}
	return true
}

// Deregister removes a node cleanly (graceful shutdown): its sessions are
// orphaned for failover, but no death is counted.
func (c *Coordinator) Deregister(id string) {
	ns := c.nodeShardFor(id)
	ns.mu.Lock()
	n := ns.nodes[id]
	if n == nil {
		ns.mu.Unlock()
		return
	}
	orphans := releaseNodeLocked(n)
	ns.adm.RemoveHost(id)
	if st, ok := ns.det.Remove(id); ok {
		c.gaugeFor(st).Add(-1)
	}
	delete(ns.nodes, id)
	ns.mu.Unlock()
	c.mOpDeregister.Inc()
	c.detachSessions(orphans)
}

// Tick advances every shard's failure detector to Now(), applying suspect
// and death verdicts: dead nodes keep their registry entry (so the death
// is observable) but lose their host and sessions. Tick also flushes the
// shards' pending counter commits.
func (c *Coordinator) Tick() {
	now := c.cfg.Now()
	deaths := 0
	var orphans []orphanRef
	for _, ns := range c.nshards {
		ns.mu.Lock()
		for _, tr := range ns.det.Tick(now) {
			c.gaugeFor(tr.From).Add(-1)
			c.gaugeFor(tr.To).Add(1)
			if tr.To != StateDead {
				continue
			}
			deaths++
			if n := ns.nodes[tr.ID]; n != nil {
				orphans = append(orphans, releaseNodeLocked(n)...)
			}
			ns.adm.RemoveHost(tr.ID)
		}
		ns.pendBeats.flush()
		ns.pendBeatOp.flush()
		ns.mu.Unlock()
	}
	if deaths > 0 {
		c.mNodeDeaths.Add(float64(deaths))
	}
	c.detachSessions(orphans)
}

// StartTicker pumps Tick every interval on a background goroutine until
// the returned stop function is called.
func (c *Coordinator) StartTicker(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				c.Tick()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// cand is one placement candidate gathered under a shard read lock.
type cand struct {
	id       string
	shard    int
	edge     bool
	reserved float64
	sessions int
}

// gatherCandidates collects alive nodes matching the request under shard
// read locks. With limit > 0 the scan stops once limit candidates are
// collected, starting from a rotating shard so the sample is not biased
// toward low shards; complete reports whether every node was considered
// (always true for clusters that fit inside the limit).
func (c *Coordinator) gatherCandidates(req *ResolveRequest, excluded map[string]bool, limit int) (cands []cand, complete bool) {
	n := len(c.nshards)
	start := int(c.rot.Add(1)) % n
	complete = true
	for i := 0; i < n; i++ {
		si := (start + i) % n
		ns := c.nshards[si]
		ns.mu.RLock()
		for id, nd := range ns.nodes {
			if st, _ := ns.det.State(id); st != StateAlive {
				continue
			}
			if excluded[id] || (req.Sig != "" && nd.sig != req.Sig) {
				continue
			}
			edge := nd.info.Role == RoleEdge
			if edge && !req.Coarse {
				// Fine-level traffic streams through an edge uncached; keep it
				// off the cache tier entirely.
				continue
			}
			cands = append(cands, cand{
				id: id, shard: si, edge: edge,
				reserved: nd.host.Reserved() / nd.info.CPU,
				sessions: nd.load.ActiveSessions,
			})
			if limit > 0 && len(cands) >= limit {
				complete = false
				break
			}
		}
		ns.mu.RUnlock()
		if limit > 0 && len(cands) >= limit {
			// Unvisited shards (or the rest of this one) may hold better
			// candidates; the caller knows the sample is partial.
			break
		}
	}
	return cands, complete
}

// sortCands orders candidates best-first. Coarse sessions prefer any warm
// edge over any origin; when the edges are excluded (failed) or absent,
// origins still serve, so a cache-tier outage degrades to direct
// delivery, never to refusal.
func sortCands(cands []cand) {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].edge != cands[j].edge {
			return cands[i].edge
		}
		if cands[i].reserved != cands[j].reserved {
			return cands[i].reserved < cands[j].reserved
		}
		if cands[i].sessions != cands[j].sessions {
			return cands[i].sessions < cands[j].sessions
		}
		return cands[i].id < cands[j].id
	})
}

// tryPlace attempts the admission reservation on one candidate,
// re-verifying under the node shard's write lock that the node is still
// present and alive (the candidate was gathered under a read lock that
// has since been dropped).
func (c *Coordinator) tryPlace(cd *cand, sid string, want resource.Vector) (ResolveGrant, *scheduler.Reservation, bool) {
	ns := c.nshards[cd.shard]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	n := ns.nodes[cd.id]
	if n == nil {
		return ResolveGrant{}, nil, false
	}
	if st, _ := ns.det.State(cd.id); st != StateAlive {
		return ResolveGrant{}, nil, false
	}
	res, err := ns.adm.ReservePlaced("sess:"+sid, []scheduler.Placement{
		{Component: "avis", Host: cd.id, Want: want},
	})
	if err != nil {
		return ResolveGrant{}, nil, false
	}
	n.resv[sid] = res
	return ResolveGrant{NodeID: cd.id, Addr: n.info.Addr, Sig: n.sig}, res, true
}

// releasePlacement drops a session's reservation under its node's shard
// lock (reservation state lives on the node's host, which that lock
// owns). The node may already be gone or re-registered; the release is
// idempotent and stale resv entries are left for the new owner.
func (c *Coordinator) releasePlacement(nodeID, sid string, res *scheduler.Reservation) {
	ns := c.nodeShardFor(nodeID)
	ns.mu.Lock()
	if n := ns.nodes[nodeID]; n != nil && n.resv[sid] == res {
		delete(n.resv, sid)
	}
	res.Release()
	ns.mu.Unlock()
}

// Resolve places (or re-places) a session onto an alive node: candidates
// matching the requested store signature are tried least-reserved-share
// first, and the first node whose admission control accepts the session's
// demand wins — all-or-nothing per Section 6.2, so an over-committed node
// never silently absorbs a session it cannot police. A request for a
// session the coordinator has already seen counts as a failover.
//
// The session shard's lock is held for the whole placement (serializing
// same-session resolves); node shards are only touched briefly — shared
// for the candidate scan, exclusive per admission attempt.
func (c *Coordinator) Resolve(req ResolveRequest) (ResolveGrant, error) {
	if req.SID == "" {
		return ResolveGrant{}, fmt.Errorf("cluster: resolve needs a session id")
	}
	share := req.CPU
	if share <= 0 {
		share = DefaultSessionShare
	}
	start := time.Now()
	defer func() {
		c.mPlaceLatency.Observe(time.Since(start).Seconds())
	}()
	c.mResolves.Inc()
	c.mOpResolve.Inc()

	ss := c.sessionShardFor(req.SID)
	ss.mu.Lock()
	defer ss.mu.Unlock()
	sess := ss.sessions[req.SID]
	failover := false
	if sess != nil {
		failover = sess.placed
		if sess.res != nil {
			c.releasePlacement(sess.nodeID, req.SID, sess.res)
			sess.res = nil
		}
		sess.nodeID = ""
	} else {
		sess = &session{id: req.SID}
		ss.sessions[req.SID] = sess
		c.mSessions.Set(float64(c.nSessions.Add(1)))
	}

	excluded := make(map[string]bool, len(req.Exclude))
	for _, id := range req.Exclude {
		excluded[id] = true
	}
	want := resource.Vector{resource.CPU: share}
	if req.MemBytes > 0 {
		want[resource.Memory] = float64(req.MemBytes)
	}

	sawAny := false
	limit := placeSample
	for {
		cands, complete := c.gatherCandidates(&req, excluded, limit)
		sawAny = sawAny || len(cands) > 0
		sortCands(cands)
		for i := range cands {
			grant, res, ok := c.tryPlace(&cands[i], req.SID, want)
			if !ok {
				continue
			}
			sess.nodeID = grant.NodeID
			sess.res = res
			sess.placed = true
			if failover {
				c.mFailovers.Inc()
			}
			grant.Failover = failover
			return grant, nil
		}
		if complete {
			break
		}
		limit = 0 // sampled scan found nothing admissible: one exhaustive pass
	}
	c.mNoCapacity.Inc()
	if !sawAny {
		return ResolveGrant{}, fmt.Errorf("cluster: no alive node matches the request")
	}
	return ResolveGrant{}, fmt.Errorf("cluster: no node admits the session demand (cpu %.2f)", share)
}

// EndSession releases a session's reservation (client hung up cleanly).
func (c *Coordinator) EndSession(sid string) {
	ss := c.sessionShardFor(sid)
	ss.mu.Lock()
	if s := ss.sessions[sid]; s != nil {
		if s.res != nil {
			c.releasePlacement(s.nodeID, sid, s.res)
		}
		delete(ss.sessions, sid)
		c.mSessions.Set(float64(c.nSessions.Add(-1)))
	}
	ss.mu.Unlock()
	c.mOpEndSession.Inc()
}

// Nodes lists the registry, sorted by node ID. Shards are read-locked one
// at a time, so the listing is per-shard consistent, not a global
// snapshot — the price of not stopping the world at fleet scale.
func (c *Coordinator) Nodes() []NodeStatus {
	var out []NodeStatus
	for _, ns := range c.nshards {
		ns.mu.RLock()
		for id, n := range ns.nodes {
			st, _ := ns.det.State(id)
			reserved := 0.0
			if st != StateDead {
				reserved = n.host.Reserved() - (sandbox.MaxReservable - n.info.CPU)
				if reserved < 0 {
					reserved = 0
				}
			}
			out = append(out, NodeStatus{
				ID:          id,
				Addr:        n.info.Addr,
				Role:        n.info.Role,
				State:       st.String(),
				Sig:         n.sig,
				Load:        n.load,
				CPU:         n.info.CPU,
				ReservedCPU: reserved,
				Sessions:    len(n.resv),
				Incarnation: ns.det.Incarnation(id),
			})
		}
		ns.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SetPerfStore installs the shared live performance store: nodes push
// telemetry samples over the control plane, the coordinator folds them
// into refined per-configuration profiles, and clients fetch those
// overlays to correct their local models. Nil uninstalls (perf requests
// are refused). The coordinator owns folding but not the store's
// lifetime — the caller closes it after Shutdown.
func (c *Coordinator) SetPerfStore(ps *perfstore.PerfStore) {
	c.perfMu.Lock()
	c.perf = ps
	c.perfMu.Unlock()
}

// PerfStore returns the installed shared performance store (nil if none).
func (c *Coordinator) PerfStore() *perfstore.PerfStore {
	c.perfMu.RLock()
	defer c.perfMu.RUnlock()
	return c.perf
}

// IngestSamples feeds a batch of wire-format telemetry samples into the
// shared performance store, returning how many parsed and were queued.
// Samples that fail to parse (unknown configuration, bad metric names)
// are skipped, not fatal: one misbehaving node must not poison a batch.
func (c *Coordinator) IngestSamples(samples []perfstore.WireSample) (int, error) {
	ps := c.PerfStore()
	if ps == nil {
		return 0, fmt.Errorf("no performance store installed")
	}
	n := 0
	for i := range samples {
		s, err := perfstore.FromWire(ps.App(), samples[i])
		if err != nil {
			continue
		}
		ps.Offer(s)
		n++
	}
	return n, nil
}

// PerfProfile returns the refined overlay for a configuration key from
// the shared performance store. Pending samples are flushed first so a
// fetch right after an ingest observes its own writes.
func (c *Coordinator) PerfProfile(configKey string) (*perfstore.Profile, error) {
	ps := c.PerfStore()
	if ps == nil {
		return nil, fmt.Errorf("no performance store installed")
	}
	ps.Flush()
	p, err := ps.Store().Load(configKey)
	if err == perfstore.ErrNotFound {
		return nil, fmt.Errorf("no refined profile for %q", configKey)
	}
	return p, err
}

// Serve accepts control connections until the listener closes, handling
// each in its own goroutine. After Shutdown it returns net.ErrClosed.
func (c *Coordinator) Serve(l net.Listener) error {
	return c.accept.Serve(l, c.cfg.IOTimeout, c.wInst, c.handle)
}

// handle services one control connection: a loop of request frames, each
// answered with an ack frame.
func (c *Coordinator) handle(wc *wire.Conn) {
	for {
		msg, err := wc.ReadMsg()
		if err != nil {
			return
		}
		ack := c.dispatch(msg)
		bufpool.Put(msg)
		if writeAck(wc, &ack) != nil {
			return
		}
	}
}

// writeAck answers one request. An ack too large to frame (a Nodes
// listing past wire.FrameLimit) is replaced by a refusal naming the size:
// dropping the connection instead would read as a transport failure, and
// the caller's retry loop would replay the identical request.
func writeAck(wc *wire.Conn, ack *ackMsg) error {
	err := sendAck(wc, ack)
	if errors.Is(err, wire.ErrFrameTooLarge) {
		err = sendAck(wc, &ackMsg{Err: fmt.Sprintf("reply cannot be framed: %v", err)})
	}
	return err
}

func sendAck(wc *wire.Conn, ack *ackMsg) error {
	reply, err := encodeAck(bufpool.Get(512)[:0], ack)
	if err != nil {
		return err
	}
	err = wc.WriteMsg(reply)
	bufpool.Put(reply)
	return err
}

// dispatch decodes one request and applies it to the registry core.
func (c *Coordinator) dispatch(msg []byte) ackMsg {
	refuse := func(err error) ackMsg { return ackMsg{Err: err.Error()} }
	body := msg[1:]
	switch msg[0] {
	case ctagRegister:
		info, err := decodeRegister(body)
		if err != nil {
			return refuse(err)
		}
		if err := c.Register(info); err != nil {
			return refuse(err)
		}
		return ackMsg{OK: true}
	case ctagDelta:
		ack, err := c.applyDeltaFrame(msg)
		if err != nil {
			return refuse(err)
		}
		return ack
	case ctagDeregister:
		id, err := decodeStrMsg(schNodeID, "id", body)
		if err != nil {
			return refuse(err)
		}
		c.Deregister(id)
		return ackMsg{OK: true}
	case ctagResolve:
		req, err := decodeResolve(body)
		if err != nil {
			return refuse(err)
		}
		grant, err := c.Resolve(req)
		if err != nil {
			return refuse(err)
		}
		return ackMsg{OK: true, Grant: grant}
	case ctagEndSession:
		sid, err := decodeStrMsg(schSession, "sid", body)
		if err != nil {
			return refuse(err)
		}
		c.EndSession(sid)
		return ackMsg{OK: true}
	case ctagNodes:
		return ackMsg{OK: true, Nodes: c.Nodes()}
	case ctagPerfIngest:
		samples, err := decodePerfIngest(body)
		if err != nil {
			return refuse(err)
		}
		n, err := c.IngestSamples(samples)
		if err != nil {
			return refuse(err)
		}
		return ackMsg{OK: true, Accepted: n}
	case ctagPerfProfile:
		key, err := decodeStrMsg(schPerfProfile, "config", body)
		if err != nil {
			return refuse(err)
		}
		p, err := c.PerfProfile(key)
		if err != nil {
			return refuse(err)
		}
		return ackMsg{OK: true, Profile: p}
	default:
		return refuse(fmt.Errorf("unknown control tag %q", msg[0]))
	}
}

// Shutdown stops the control plane: it closes every listener passed to
// Serve and every open control connection — agents hold theirs open
// between heartbeats, so there is no idle state to drain to — and returns
// once the handlers have unwound. The argument is unused; a handler
// blocked on I/O returns as soon as its connection closes.
func (c *Coordinator) Shutdown(time.Duration) { c.accept.Shutdown(0) }
