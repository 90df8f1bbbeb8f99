package cluster

import "tunable/internal/wire"

// Control-message codecs: the body of every control-plane frame is one
// message behind its ctag* tag byte, and each message lists its fields
// once, in the codec method that both renders and parses it
// (internal/wire) — below, or in delta.go for the heartbeat's delta
// batch. Field tags are append-only — a new field gets
// the next tag and old decoders skip it by wire type — which is the
// forward-compatibility contract between builds of different age. The
// golden fixtures under testdata/ pin the bytes, and the ones the previous
// codec rendered, zero fields included, still decode.

func (info *NodeInfo) codec(c *wire.Codec) {
	c.Str(1, &info.ID, wire.Required)
	c.Str(2, &info.Addr, wire.Required)
	c.Str(3, &info.Role)
	c.F64(4, &info.CPU)
	c.Sint(5, &info.MemBytes)
	c.Int(6, &info.Side)
	c.Int(7, &info.Levels)
	c.Sints(8, &info.Seeds)
	c.Str(9, &info.Sig)
}

// nameReq is the body of a request that names one thing: the node a
// deregister removes or the session an end-session releases.
type nameReq struct{ Name string }

func (r *nameReq) codec(c *wire.Codec) { c.Str(1, &r.Name, wire.Required) }

func (r *ResolveRequest) codec(c *wire.Codec) {
	c.Str(1, &r.SID, wire.Required)
	c.Strs(2, &r.Exclude)
	c.F64(3, &r.CPU)
	c.Sint(4, &r.MemBytes)
	c.Str(5, &r.Sig)
	c.Bool(6, &r.Coarse)
}

func (g *ResolveGrant) codec(c *wire.Codec) {
	c.Str(1, &g.NodeID)
	c.Str(2, &g.Addr)
	c.Str(3, &g.Sig)
	c.Bool(4, &g.Failover)
}

func (n *NodeStatus) codec(c *wire.Codec) {
	c.Str(1, &n.ID, wire.Required)
	c.Str(2, &n.Addr)
	c.Str(3, &n.Role)
	c.Str(4, &n.State)
	c.Str(5, &n.Sig)
	c.Int(6, &n.Load.ActiveSessions)
	c.F64(7, &n.CPU)
	c.F64(8, &n.ReservedCPU)
	c.Int(9, &n.Sessions)
	c.Uint(10, &n.Incarnation)
}

func (a *ackMsg) codec(c *wire.Codec) {
	c.Bool(1, &a.OK)
	c.Str(2, &a.Err)
	// tag 3 is reserved: older builds sent a bool there; do not reuse it
	if sub, ok := c.Msg(4, a.Grant != (ResolveGrant{})); ok {
		for sub.Next() {
			a.Grant.codec(&sub)
		}
		c.End(&sub)
	}
	nodes := wire.Elems(c, 5, &a.Nodes)
	for i := range nodes {
		if sub, ok := c.Msg(5, true); ok {
			for sub.Next() {
				nodes[i].codec(&sub)
			}
			c.End(&sub)
		}
	}
	c.Strs(6, &a.Unknown)
	// tags 7 and 8 are reserved: older builds sent a perf-ingest count and
	// a perf profile there; do not reuse them
}
