// Package cluster is the control plane that pools several avis servers
// behind one client population: a registry where servers announce their
// address, image-store contents, and declared resource capacity; a
// deadline failure detector driven by heartbeats (alive → suspect → dead,
// with rejoin on re-registration); and an admission-controlled placement
// layer that picks a server per client session, least-reserved first,
// gated by the scheduler's all-or-nothing reservations (Section 6.2's
// admission control lifted from one host to a node pool — the shape of
// Dearle et al.'s constraint-based deployment framework).
//
// Four roles speak one wire discipline (internal/wire framing and
// handshake, schema-coded bodies, and the data plane's progress-deadline
// timeout semantics):
//
//   - Coordinator (cmd/avis-coord): owns the registry, detector, and
//     placement; exposes cluster_* metric families.
//   - Agent: runs inside cmd/avis-server; registers the node and renews
//     it with periodic heartbeats carrying the current load.
//   - Resolver: the client-side stub that asks the coordinator for a
//     server, and reports failed nodes back when re-resolving.
//   - FailoverClient: wraps avis.RealClient; when a node dies
//     mid-session it re-resolves through the coordinator and replays the
//     session's fovea/codec state on the replacement server.
package cluster

import (
	"fmt"
	"hash/fnv"
	"time"
)

// Node roles in the delivery tier. An origin node (the zero value) serves
// from its own image store; an edge node fronts an origin through a chunk
// cache, serving coarse pyramid levels from cache and relaying the rest.
const (
	RoleOrigin = ""     // default: a full avis server
	RoleEdge   = "edge" // a caching proxy (internal/edge)
)

// NodeInfo is what a server announces at registration.
type NodeInfo struct {
	ID   string // cluster-unique node name
	Addr string // data-plane address clients dial

	// Role places the node in the delivery tier (RoleOrigin or RoleEdge).
	// Edge nodes are only eligible for placements that ask for them
	// (ResolveRequest.Coarse) and are preferred for those.
	Role string

	// Declared resource capacity for session admission: CPU is the
	// reservable share in (0, 1]; MemBytes the physical memory
	// (0 defaults to 512 MiB).
	CPU      float64
	MemBytes int64

	// Image-store contents. Failover replays a session onto a replacement
	// server, so placement only considers nodes serving identical stores.
	Side   int
	Levels int
	Seeds  []int64

	// Sig, when non-empty, overrides the computed store signature. Edge
	// nodes front a store they do not own (they never see its seeds), so
	// they announce the origin's signature verbatim: a session pinned to
	// the origin's store can then land on any edge caching that store.
	Sig string
}

// StoreSig fingerprints the node's image-store contents; sessions are
// pinned to a signature so every failover target can replay them.
func (n NodeInfo) StoreSig() string {
	if n.Sig != "" {
		return n.Sig
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", n.Side, n.Levels)
	for _, s := range n.Seeds {
		fmt.Fprintf(h, "/%d", s)
	}
	return fmt.Sprintf("%d-%d-%016x", n.Side, n.Levels, h.Sum64())
}

// Load is the node-side utilization report carried by each heartbeat.
type Load struct {
	ActiveSessions int // currently open data-plane connections
}

// NodeState is the failure detector's verdict on a node.
type NodeState uint8

const (
	StateAlive NodeState = iota
	StateSuspect
	StateDead
)

// String renders the state for logs and metric labels.
func (s NodeState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("NodeState(%d)", uint8(s))
}

// NodeStatus is one row of the coordinator's registry view.
type NodeStatus struct {
	ID          string
	Addr        string
	Role        string
	State       string
	Sig         string
	Load        Load
	CPU         float64
	ReservedCPU float64
	Sessions    int
	Incarnation uint64
}

// Control-plane defaults; cmd flags override all of them.
const (
	DefaultSuspectAfter = 3 * time.Second
	DefaultDeadAfter    = 10 * time.Second
	DefaultHeartbeat    = time.Second
	// DefaultSessionShare is the CPU share a session reserves when the
	// client does not declare a demand: 1/20th of a node.
	DefaultSessionShare = 0.05
)
