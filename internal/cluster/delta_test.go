package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/metrics"
	"tunable/internal/wire"
)

// decodeAll parses a rendered heartbeat request back into its entries.
func decodeAll(t *testing.T, frame []byte) []DeltaEntry {
	t.Helper()
	if frame[0] != ctagHeartbeat {
		t.Fatalf("tag %q, want %q", frame[0], ctagHeartbeat)
	}
	var b deltaBatch
	if err := parse(frame[1:], &b); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := b.check(); err != nil {
		t.Fatalf("check: %v", err)
	}
	return b.Entries
}

func TestDeltaRoundTrip(t *testing.T) {
	cases := [][]DeltaEntry{
		nil,
		{{ID: "n1", Sessions: 0}},
		{{ID: "n1", Sessions: 1}, {ID: "node-with-a-longer-name", Sessions: -1}},
		{{ID: "a", Sessions: 1 << 20}, {ID: "b", Sessions: -(1 << 20)}, {ID: "c", Sessions: -1}},
		{{ID: "max", Sessions: math.MaxInt32}, {ID: "min", Sessions: math.MinInt32}},
		{{ID: strings.Repeat("x", 300), Sessions: 2}},
	}
	for i, entries := range cases {
		frame, err := EncodeDeltaBatch(entries)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got := decodeAll(t, frame)
		if len(got) != len(entries) {
			t.Fatalf("case %d: %d entries round-tripped to %d", i, len(entries), len(got))
		}
		for j := range entries {
			if got[j] != entries[j] {
				t.Fatalf("case %d entry %d: %+v != %+v", i, j, got[j], entries[j])
			}
		}
		bufpool.Put(frame)
	}
}

func TestDeltaRoundTripLargeBatch(t *testing.T) {
	entries := make([]DeltaEntry, 5000)
	for i := range entries {
		entries[i] = DeltaEntry{ID: fmt.Sprintf("node-%04d", i), Sessions: int32(i - 2500)}
	}
	frame, err := EncodeDeltaBatch(entries)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	defer bufpool.Put(frame)
	got := decodeAll(t, frame)
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
}

func TestDeltaEncodeRejects(t *testing.T) {
	if _, err := EncodeDeltaBatch([]DeltaEntry{{ID: "n1", Sessions: 1}, {ID: "", Sessions: 1}}); err == nil {
		t.Fatal("empty ID accepted")
	}
}

// heartbeatOf renders a heartbeat request of one entry field by field, so
// a test can write what EncodeDeltaBatch never would: an absent or empty
// ID, a delta past int32.
func heartbeatOf(id *string, delta int64) []byte {
	c := wire.NewEncoder([]byte{ctagHeartbeat})
	if sub, ok := c.Msg(1, true); ok {
		if id != nil {
			sub.Str(1, id, wire.Required)
		}
		sub.Sint(2, &delta)
		c.End(&sub)
	}
	return c.Bytes()
}

// TestDeltaDecodeRejectsMalformed: a heartbeat body the registry cannot
// apply as it stands gets an error ack and changes nothing; in particular
// a delta outside int32 is refused, never truncated.
func TestDeltaDecodeRejectsMalformed(t *testing.T) {
	c := NewCoordinator(Config{Shards: 2})
	if err := c.Register(NodeInfo{ID: "n1", Addr: "a", CPU: 1}); err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeDeltaBatch([]DeltaEntry{{ID: "n1", Sessions: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer bufpool.Put(frame)
	id, empty := "n1", ""
	cases := map[string][]byte{
		"truncated":          frame[:len(frame)-1],
		"trailing byte":      append(append([]byte(nil), frame...), 0xff),
		"entry without id":   heartbeatOf(nil, 3),
		"empty id":           heartbeatOf(&empty, 3),
		"delta past int32":   heartbeatOf(&id, math.MaxInt32+1),
		"delta below int32":  heartbeatOf(&id, math.MinInt32-1),
		"delta of 2^32 + 3":  heartbeatOf(&id, 1<<32+3),
		"entry as a varint":  {ctagHeartbeat, 0x08, 0x01},
		"entry of bad bytes": {ctagHeartbeat, 0x0a, 0x02, 0x0b, 0x00},
	}
	for name, msg := range cases {
		if ack := c.dispatch(msg); ack.OK || ack.Err == "" {
			t.Errorf("%s: accepted: %+v", name, ack)
		}
	}
	if got := c.Nodes()[0].Load.ActiveSessions; got != 0 {
		t.Fatalf("refused heartbeats moved the load to %d", got)
	}
	for _, d := range []int64{math.MaxInt32, math.MinInt32} {
		if ack := c.dispatch(heartbeatOf(&id, d)); !ack.OK {
			t.Fatalf("delta %d refused: %s", d, ack.Err)
		}
	}
}

// TestApplyDeltas drives the coordinator's delta path in-process: load
// accumulates as net deltas, refused IDs come back as unknown, and a
// suspect node is revived by a delta entry like a classic heartbeat.
func TestApplyDeltas(t *testing.T) {
	var now time.Duration
	c := NewCoordinator(Config{
		SuspectAfter: 100 * time.Millisecond,
		DeadAfter:    300 * time.Millisecond,
		Now:          func() time.Duration { return now },
		Shards:       4,
	})
	reg := metrics.New()
	c.EnableMetrics(reg)
	for i := 0; i < 3; i++ {
		info := NodeInfo{ID: fmt.Sprintf("n%d", i), Addr: "a", CPU: 1, Side: 8, Levels: 1, Seeds: []int64{1}}
		if err := c.Register(info); err != nil {
			t.Fatal(err)
		}
	}

	unknown := c.ApplyDeltas([]DeltaEntry{
		{ID: "n0", Sessions: 5},
		{ID: "n1", Sessions: 2},
		{ID: "ghost", Sessions: 1},
	})
	if len(unknown) != 1 || unknown[0] != "ghost" {
		t.Fatalf("unknown = %v", unknown)
	}
	unknown = c.ApplyDeltas([]DeltaEntry{
		{ID: "n0", Sessions: -2},
		{ID: "n1", Sessions: -7}, // over-decrement clamps at zero
	})
	if len(unknown) != 0 {
		t.Fatalf("unknown = %v", unknown)
	}
	loads := map[string]int{}
	for _, st := range c.Nodes() {
		loads[st.ID] = st.Load.ActiveSessions
	}
	if loads["n0"] != 3 || loads["n1"] != 0 || loads["n2"] != 0 {
		t.Fatalf("loads = %v", loads)
	}

	// A suspect node is revived by a delta entry.
	now = 150 * time.Millisecond
	c.Tick()
	if st := stateOf(t, c, "n0"); st != "suspect" {
		t.Fatalf("n0 state %q", st)
	}
	c.ApplyDeltas([]DeltaEntry{{ID: "n0", Sessions: 0}, {ID: "n1", Sessions: 0}, {ID: "n2", Sessions: 0}})
	if st := stateOf(t, c, "n0"); st != "alive" {
		t.Fatalf("n0 state %q after delta", st)
	}

	// A dead node refuses delta entries (the agent must re-register).
	now = 600 * time.Millisecond
	c.Tick()
	unknown = c.ApplyDeltas([]DeltaEntry{{ID: "n2", Sessions: 1}})
	if len(unknown) != 1 || unknown[0] != "n2" {
		t.Fatalf("dead node delta: unknown = %v", unknown)
	}
}

// TestDeltaFrameDispatch runs the wire path end to end: an encoded
// heartbeat through dispatch, unknown IDs in the ack.
func TestDeltaFrameDispatch(t *testing.T) {
	c := NewCoordinator(Config{Shards: 2})
	if err := c.Register(NodeInfo{ID: "n0", Addr: "a", CPU: 1, Side: 8, Levels: 1, Seeds: []int64{1}}); err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeDeltaBatch([]DeltaEntry{{ID: "n0", Sessions: 4}, {ID: "ghost", Sessions: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer bufpool.Put(frame)
	ack := c.dispatch(frame)
	if !ack.OK {
		t.Fatalf("dispatch refused: %s", ack.Err)
	}
	if len(ack.Unknown) != 1 || ack.Unknown[0] != "ghost" {
		t.Fatalf("ack.Unknown = %v", ack.Unknown)
	}
	if got := c.Nodes()[0].Load.ActiveSessions; got != 4 {
		t.Fatalf("load = %d", got)
	}
	if bad := c.dispatch([]byte{ctagHeartbeat, 9, 9}); bad.OK || bad.Err == "" {
		t.Fatalf("malformed heartbeat accepted: %+v", bad)
	}
}

// TestAgentRejoinsWhenForgotten: over TCP, a coordinator that no longer
// knows the node answers its heartbeat with the ID in ack.Unknown, and the
// agent registers again.
func TestAgentRejoinsWhenForgotten(t *testing.T) {
	coord, addr := serveCoordinator(t)
	ag := NewAgent(addr, testNode("n1", 1.0), 10*time.Millisecond, nil)
	reg := metrics.New()
	ag.EnableMetrics(reg)
	if err := ag.Start(); err != nil {
		t.Fatal(err)
	}
	defer ag.Close(false)
	coord.Deregister("n1")
	rejoins := reg.Counter("cluster_rejoins_total", "")
	for deadline := time.Now().Add(2 * time.Second); rejoins.Value() == 0 || len(coord.Nodes()) == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("agent never re-registered: rejoins %v, nodes %+v", rejoins.Value(), coord.Nodes())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := stateOf(t, coord, "n1"); st != "alive" {
		t.Fatalf("rejoined node is %s", st)
	}
}

func stateOf(t *testing.T, c *Coordinator, id string) string {
	t.Helper()
	for _, st := range c.Nodes() {
		if st.ID == id {
			return st.State
		}
	}
	t.Fatalf("node %s not listed", id)
	return ""
}
