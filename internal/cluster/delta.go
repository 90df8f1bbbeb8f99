package cluster

import (
	"fmt"

	"tunable/internal/bufpool"
	"tunable/internal/wire"
)

// Heartbeat deltas. An agent renews its node with a heartbeat request
// whose body is a batch of (node ID, net session delta) entries: the
// liveness observation is the request's arrival, the load update is the
// coalesced net delta since the last accepted flush. The batch is coded
// like every other control body (codec.go), its entries one repeated
// message field. Coordinator.ApplyDeltas applies it, for the wire and
// for in-process drivers (cmd/avis-load) alike; a refused entry (unknown
// or dead node) is echoed back in ackMsg.Unknown so the agent
// re-registers and resends an absolute count.

// DeltaEntry is one node's coalesced load change inside a delta batch.
type DeltaEntry struct {
	ID       string
	Sessions int32 // net change in active sessions since the last accepted report
}

// codec codes one entry: the node ID, and the delta as a zigzag varint.
// A decoded delta outside int32 is not truncated: it sets *wide, and
// check refuses the batch.
func (e *DeltaEntry) codec(c *wire.Codec, wide *bool) {
	c.Str(1, &e.ID, wire.Required)
	d := int64(e.Sessions)
	c.Sint(2, &d)
	if e.Sessions = int32(d); int64(e.Sessions) != d {
		*wide = true
	}
}

// deltaBatch is the body of a heartbeat request.
type deltaBatch struct {
	Entries []DeltaEntry
	wide    bool // a decoded delta lay outside int32
}

func (b *deltaBatch) codec(c *wire.Codec) {
	entries := wire.Elems(c, 1, &b.Entries)
	for i := range entries {
		if sub, ok := c.Msg(1, true); ok {
			for sub.Next() {
				entries[i].codec(&sub, &b.wide)
			}
			c.End(&sub)
		}
	}
}

// check refuses a batch the registry cannot apply: an entry with an empty
// node ID, or a delta outside int32.
func (b *deltaBatch) check() error {
	if b.wide {
		return fmt.Errorf("cluster: heartbeat delta outside int32")
	}
	for _, e := range b.Entries {
		if e.ID == "" {
			return fmt.Errorf("cluster: heartbeat entry without a node id")
		}
	}
	return nil
}

// EncodeDeltaBatch renders entries as a heartbeat request backed by a
// bufpool buffer; the caller returns it with bufpool.Put once the frame
// is written. An entry with an empty node ID is rejected.
func EncodeDeltaBatch(entries []DeltaEntry) ([]byte, error) {
	n := 1
	for _, e := range entries {
		n += 16 + len(e.ID) // keys, length prefixes and a 5-byte varint
	}
	return appendDeltaBatch(bufpool.Get(n)[:0], entries)
}

// appendDeltaBatch renders a heartbeat request — tag byte, then the batch
// — appending to buf.
func appendDeltaBatch(buf []byte, entries []DeltaEntry) ([]byte, error) {
	b := deltaBatch{Entries: entries}
	if err := b.check(); err != nil {
		return nil, err
	}
	c := wire.NewEncoder(append(buf, ctagHeartbeat))
	b.codec(c)
	return c.Bytes(), nil
}
