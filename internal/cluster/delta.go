package cluster

import (
	"encoding/binary"
	"fmt"

	"tunable/internal/bufpool"
)

// Batched heartbeat deltas. A per-node heartbeat message costs one encode
// and one decode per node per interval — at fleet scale the coordinator
// spends its time in the codec, not the registry. A delta frame instead
// carries a batch of (node ID, net session delta) pairs in a hand-packed
// binary body that decodes with zero allocations, and one frame renews
// many nodes: the liveness observation is the frame's arrival, the load
// update is the coalesced net delta since the last accepted flush
// (Roy & Mukherjee's multi-agent argument — aggregate at the edge, ship
// deltas, never per-op).
//
// Wire layout (after the ctagDelta tag byte):
//
//	version  uint8   (deltaVersion)
//	count    uint16  little-endian
//	entries  count × { idLen uint8, id [idLen]byte, delta zigzag-uvarint }
//
// The delta is the signed change in active sessions since the node's last
// accepted report; a refused entry (unknown or dead node) is echoed back
// in ackMsg.Unknown so the agent re-registers and resends an absolute
// count.
const (
	deltaVersion    = 1
	maxDeltaEntries = 1 << 16 // count field is uint16
)

// DeltaEntry is one node's coalesced load change inside a delta batch.
type DeltaEntry struct {
	ID       string
	Sessions int32 // net change in active sessions since the last accepted report
}

// EncodeDeltaBatch packs entries into a control frame backed by a bufpool
// buffer; the caller returns it with bufpool.Put once the frame is
// written. Node IDs longer than 255 bytes or batches beyond 65535 entries
// are rejected (both are far outside the protocol's envelope).
func EncodeDeltaBatch(entries []DeltaEntry) ([]byte, error) {
	max := 4
	for _, e := range entries {
		max += 1 + len(e.ID) + binary.MaxVarintLen32
	}
	return appendDeltaBatch(bufpool.Get(max)[:0], entries)
}

// appendDeltaBatch renders the delta frame for entries, appending to buf.
func appendDeltaBatch(buf []byte, entries []DeltaEntry) ([]byte, error) {
	if len(entries) >= maxDeltaEntries {
		return nil, fmt.Errorf("cluster: delta batch of %d entries exceeds %d", len(entries), maxDeltaEntries-1)
	}
	buf = append(buf, ctagDelta, deltaVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(entries)))
	for _, e := range entries {
		if len(e.ID) == 0 || len(e.ID) > 255 {
			return nil, fmt.Errorf("cluster: delta entry id %q has invalid length", e.ID)
		}
		buf = append(buf, byte(len(e.ID)))
		buf = append(buf, e.ID...)
		buf = binary.AppendUvarint(buf, uint64(zigzag32(e.Sessions)))
	}
	return buf, nil
}

// forEachDelta walks a delta frame without allocating: fn receives the ID
// bytes aliased into msg (valid only for the duration of the call — index
// a map with string(id) to stay allocation-free) and the decoded delta.
func forEachDelta(msg []byte, fn func(id []byte, sessions int32)) error {
	if len(msg) < 4 || msg[0] != ctagDelta {
		return fmt.Errorf("cluster: malformed delta frame")
	}
	if msg[1] != deltaVersion {
		return fmt.Errorf("cluster: delta frame version %d (want %d)", msg[1], deltaVersion)
	}
	count := int(binary.LittleEndian.Uint16(msg[2:]))
	off := 4
	for i := 0; i < count; i++ {
		if off >= len(msg) {
			return fmt.Errorf("cluster: delta frame truncated at entry %d", i)
		}
		idLen := int(msg[off])
		off++
		if idLen == 0 || off+idLen > len(msg) {
			return fmt.Errorf("cluster: delta frame truncated at entry %d", i)
		}
		id := msg[off : off+idLen]
		off += idLen
		raw, n := binary.Uvarint(msg[off:])
		if n <= 0 || raw > (1<<32)-1 {
			return fmt.Errorf("cluster: delta frame truncated at entry %d", i)
		}
		off += n
		fn(id, unzigzag32(uint32(raw)))
	}
	if off != len(msg) {
		return fmt.Errorf("cluster: delta frame has %d trailing bytes", len(msg)-off)
	}
	return nil
}

// zigzag32 maps signed deltas onto small unsigned varints (−1 → 1, 1 → 2).
func zigzag32(v int32) uint32 { return uint32((v << 1) ^ (v >> 31)) }

func unzigzag32(u uint32) int32 { return int32(u>>1) ^ -int32(u&1) }
