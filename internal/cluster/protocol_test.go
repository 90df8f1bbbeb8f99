package cluster

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tunable/internal/avis"
	"tunable/internal/bufpool"
	"tunable/internal/metrics"
	"tunable/internal/wire"
)

// serveCoordinator starts a coordinator on a loopback listener.
func serveCoordinator(t *testing.T) (*Coordinator, string) {
	t.Helper()
	coord := NewCoordinator(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(ln)
	t.Cleanup(func() { coord.Shutdown(time.Second) })
	return coord, ln.Addr().String()
}

// countingResolver returns an instrumented resolver whose dials are
// counted, so a test can tell a reused connection from a fresh one.
func countingResolver(t *testing.T, addr string) (*Resolver, *metrics.Registry, *atomic.Int64) {
	t.Helper()
	r := NewResolver(addr, time.Second)
	t.Cleanup(r.Close)
	r.cl.setRetryPolicy(3, quickRetry(), nil)
	reg := metrics.New()
	r.EnableMetrics(reg)
	dials := new(atomic.Int64)
	r.SetDialer(func(network, addr string, timeout time.Duration) (net.Conn, error) {
		dials.Add(1)
		return net.DialTimeout(network, addr, timeout)
	})
	return r, reg, dials
}

func resolverRetries(reg *metrics.Registry) float64 {
	return reg.Counter("cluster_ctrl_retries_total", "", metrics.L("role", "resolver")).Value()
}

// TestClientLocalFailureNotRetried: a request that cannot be framed (or
// encoded) fails identically on every attempt, so the client must return
// it at once — no retry, no backoff, and the healthy pooled connection
// stays in the pool.
func TestClientLocalFailureNotRetried(t *testing.T) {
	_, addr := serveCoordinator(t)
	r, reg, dials := countingResolver(t, addr)
	if _, err := r.Nodes(); err != nil {
		t.Fatal(err)
	}

	_, err := r.Resolve(ResolveRequest{SID: strings.Repeat("x", wire.FrameLimit+1)})
	if !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("oversize request: error %v, want wire.ErrFrameTooLarge", err)
	}
	errEncode := errors.New("does not encode")
	if _, err := r.cl.call(func([]byte) ([]byte, error) { return nil, errEncode }); !errors.Is(err, errEncode) {
		t.Fatalf("encode failure: error %v, want it returned as is", err)
	}
	if got := resolverRetries(reg); got != 0 {
		t.Fatalf("local failures were retried %v times, want 0", got)
	}

	if _, err := r.Nodes(); err != nil {
		t.Fatalf("call after a local failure: %v", err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d dials, want 1: the pooled connection was not reused", got)
	}
}

// retiredDeltaFrame is a heartbeat as builds before the codec-coded one
// sent it, under request tag 'D': layout version 1, a little-endian
// uint16 entry count, then per entry a length-prefixed ID and a zigzag
// varint delta — [{node-a, +3}, {node-b, -1}].
const retiredDeltaFrame = "44" + "01" + "0200" + "066e6f64652d61" + "06" + "066e6f64652d62" + "01"

// TestCoordinatorRefusesRetiredTags: request tags 'D', 'p' and 'q' once
// carried hand-packed heartbeat batches, perf-sample ingests and profile
// fetches. A frame under any of them, byte for byte as the builds that
// sent them rendered it, must get a refusal naming the unknown tag, on a
// connection that stays usable.
func TestCoordinatorRefusesRetiredTags(t *testing.T) {
	_, addr := serveCoordinator(t)
	r, reg, dials := countingResolver(t, addr)
	frames := []string{
		retiredDeltaFrame,
		// a batch of one sample: config c=bzw,dR=320,l=2, resources
		// {bandwidth: 1e5, cpu: 0.5}, metrics {transmit_time: 3.5}, at 7 ns,
		// source node-a
		"700a5c0a10633d627a772c64523d3332302c6c3d3212140a0962616e6477696474681100000000006af840" +
			"120e0a0363707511000000000000e03f1a180a0d7472616e736d69745f74696d65110000000000000c40" +
			"200e2a066e6f64652d61",
		// the refined profile of c=bzw,dR=320,l=2
		"710a10633d627a772c64523d3332302c6c3d32",
		// an empty batch: the tag alone
		"70",
	}
	for _, h := range frames {
		frame, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.cl.call(func(buf []byte) ([]byte, error) { return append(buf, frame...), nil })
		want := fmt.Sprintf("unknown control tag %q", frame[0])
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("frame %s: error %v, want a refusal naming %s", h[:2], err, want)
		}
		if _, err := r.Nodes(); err != nil {
			t.Fatalf("Nodes after frame %s: %v", h[:2], err)
		}
	}
	if got := resolverRetries(reg); got != 0 {
		t.Fatalf("refusals were retried %v times, want 0", got)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d dials, want 1: a refusal cost the connection", got)
	}
}

// TestCoordinatorRefusesUnframeableAck: a registry listing too large for
// one frame must come back as a refusal naming the size, on a connection
// that stays usable — not as a dropped connection the caller's retry loop
// answers by replaying the same request.
func TestCoordinatorRefusesUnframeableAck(t *testing.T) {
	coord, addr := serveCoordinator(t)
	pad := strings.Repeat("n", 249) // 255-byte node IDs
	long := strings.Repeat("a", 200)
	const perNode = 255 + 2*200 // lower bound on one listing row
	for i := 0; i*perNode <= wire.FrameLimit; i++ {
		info := NodeInfo{ID: fmt.Sprintf("%s%06d", pad, i), Addr: long, Sig: long, CPU: 1}
		if err := coord.Register(info); err != nil {
			t.Fatal(err)
		}
	}
	r, reg, dials := countingResolver(t, addr)

	_, err := r.Nodes()
	if err == nil || !strings.Contains(err.Error(), "refused") || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversize listing: error %v, want a refusal naming the size", err)
	}
	if got := resolverRetries(reg); got != 0 {
		t.Fatalf("refusal was retried %v times, want 0", got)
	}
	if _, err := r.Resolve(ResolveRequest{SID: "s1"}); err != nil {
		t.Fatalf("resolve after the refusal: %v", err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d dials, want 1: the connection did not survive the refusal", got)
	}
}

// TestControlHandshakeRefused: a control client facing a peer that does
// not complete the wire handshake — it answers the probe with an
// application frame, with a version-1 handshake, or with nothing — fails
// with a typed error within the I/O timeout, counts it as outcome="error",
// and never sends a request (no downgrade).
func TestControlHandshakeRefused(t *testing.T) {
	cases := []struct {
		name    string
		reply   []byte // nil: stay silent
		timeout bool   // expect avis.ErrIOTimeout (else *wire.HandshakeError)
	}{
		{"application frame", []byte{ctagAck, 'n', 'o'}, false},
		{"version 1", []byte{wire.TagNegotiate, 0x41, 0x56, 0x57, 0x32, 1, 0, 0, 0, 0}, false},
		{"silence", nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, extra := handshakeStub(t, tc.reply)
			r := NewResolver(addr, 200*time.Millisecond)
			defer r.Close()
			r.cl.setRetryPolicy(1, quickRetry(), nil)
			reg := metrics.New()
			r.EnableMetrics(reg)

			start := time.Now()
			_, err := r.Resolve(ResolveRequest{SID: "s1"})
			if took := time.Since(start); took > 2*time.Second {
				t.Fatalf("resolve took %v to fail", took)
			}
			var refused *wire.HandshakeError
			if tc.timeout {
				if !errors.Is(err, avis.ErrIOTimeout) {
					t.Fatalf("error %v, want avis.ErrIOTimeout", err)
				}
			} else if !errors.As(err, &refused) {
				t.Fatalf("error %v (%T), want *wire.HandshakeError", err, err)
			}
			errs := reg.Counter("wire_negotiations_total", "", metrics.L("outcome", "error"))
			if got := errs.Value(); got != 1 {
				t.Fatalf("wire_negotiations_total{outcome=error} = %v, want 1", got)
			}
			r.Close()
			if n := <-extra; n != 0 {
				t.Fatalf("client sent %d frame(s) after the failed handshake", n)
			}
		})
	}
}

// handshakeStub listens on loopback, reads one connection's handshake
// probe, answers it with reply (nil: nothing), and then reports on extra
// how many further frames the client sent before hanging up.
func handshakeStub(t *testing.T, reply []byte) (addr string, extra <-chan int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan int, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		wc := wire.NewConn(conn, 5*time.Second)
		if probe, err := wc.ReadMsg(); err != nil || !wire.IsNegotiate(probe) {
			t.Errorf("stub: first frame %x, err %v: not a handshake probe", probe, err)
		}
		if reply != nil {
			_ = wc.WriteMsg(reply)
		}
		n := 0
		for {
			if _, err := wc.ReadMsg(); err != nil {
				break
			}
			n++
		}
		ch <- n
	}()
	return ln.Addr().String(), ch
}

// TestControlGolden pins the control plane's bytes on the wire — frame
// header, tag and body — for a resolve request, its grant ack, and a
// heartbeat, and checks that the fixtures decode back to the values that
// produced them.
func TestControlGolden(t *testing.T) {
	req := ResolveRequest{SID: "session-1", Exclude: []string{"node-b"}, CPU: 0.25,
		MemBytes: 64 << 20, Sig: "256-4-00c0ffee", Coarse: true}
	ack := ackMsg{OK: true, Grant: ResolveGrant{NodeID: "node-a", Addr: "10.0.0.7:7465",
		Sig: "256-4-00c0ffee", Failover: true}}
	deltas := []DeltaEntry{{ID: "node-a", Sessions: 3}, {ID: "node-b", Sessions: -1}}

	check := func(fixture string, render ctrlReq, decode func(msg []byte) (any, error), want any) {
		t.Helper()
		golden := readHex(t, fixture)
		msg, err := render(nil)
		if err != nil {
			t.Fatal(err)
		}
		var framed bytes.Buffer
		if err := wire.NewStream(rw{nil, &framed}).WriteMsg(msg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(framed.Bytes(), golden) {
			t.Errorf("%s: wire bytes moved\n got %x\nwant %x", fixture, framed.Bytes(), golden)
		}
		read, err := wire.NewStream(rw{bytes.NewReader(golden), nil}).ReadMsg()
		if err != nil {
			t.Fatalf("%s: %v", fixture, err)
		}
		defer bufpool.Put(read)
		if got, err := decode(read); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s decodes to %+v (err %v), want %+v", fixture, got, err, want)
		}
	}
	check("testdata/resolve_request.hex",
		func(buf []byte) ([]byte, error) { return render(buf, ctagResolve, &req), nil },
		func(msg []byte) (any, error) {
			var got ResolveRequest
			err := parse(msg[1:], &got)
			return got, err
		}, req)
	check("testdata/grant_ack.hex",
		func(buf []byte) ([]byte, error) { return render(buf, ctagAck, &ack), nil },
		func(msg []byte) (any, error) {
			var got ackMsg
			err := parse(msg[1:], &got)
			return got, err
		}, ack)
	check("testdata/heartbeat.hex",
		func(buf []byte) ([]byte, error) { return appendDeltaBatch(buf, deltas) },
		func(msg []byte) (any, error) {
			var got deltaBatch
			err := parse(msg[1:], &got)
			return got.Entries, err
		}, deltas)
}

// TestOldCodecFixturesDecode: the previous codec wrote zero values the current
// one omits — ok=false, every NodeStatus field, a NodeInfo's capacity and
// store fields. A peer of that build still sends them during a rolling
// upgrade, so its bytes must decode to the values that produced them.
func TestOldCodecFixturesDecode(t *testing.T) {
	cases := []struct {
		fixture   string
		tag       byte
		got, want message
	}{
		{"testdata/refusal_ack.hex", ctagAck,
			&ackMsg{}, &ackMsg{Err: "unknown node", Nodes: []NodeStatus{{ID: "node-a"}}}},
		{"testdata/register_zero.hex", ctagRegister,
			&NodeInfo{}, &NodeInfo{ID: "node-a", Addr: "10.0.0.7:7465"}},
	}
	for _, tc := range cases {
		msg, err := wire.NewStream(rw{bytes.NewReader(readHex(t, tc.fixture)), nil}).ReadMsg()
		if err != nil || msg[0] != tc.tag {
			t.Fatalf("%s: frame %x, err %v", tc.fixture, msg, err)
		}
		if err := parse(msg[1:], tc.got); err != nil || !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s decodes to %+v (err %v), want %+v", tc.fixture, tc.got, err, tc.want)
		}
		bufpool.Put(msg)
	}
}

// TestDecodedAckOwnsItsStrings: ctrlConn.call returns the reply frame to
// bufpool right after decoding it, so a decoded ack must share no bytes
// with the frame — scribbling over the frame leaves it unchanged.
func TestDecodedAckOwnsItsStrings(t *testing.T) {
	want := ackMsg{OK: true, Err: "e", Grant: ResolveGrant{NodeID: "node-a", Addr: "10.0.0.7:7465", Sig: "s"},
		Nodes:   []NodeStatus{{ID: "node-a", Addr: "a", Role: RoleEdge, State: "alive", Sig: "s"}},
		Unknown: []string{"node-b"}}
	frame := render(nil, ctagAck, &want)
	var got ackMsg
	if err := parse(frame[1:], &got); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 'X'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scribbling over the frame changed the decoded ack:\n got %+v\nwant %+v", got, want)
	}
}

// rw glues a reader and a writer into the stream wire.NewStream wants.
type rw struct {
	io.Reader
	io.Writer
}

// readHex loads a golden fixture: hex bytes, with whitespace and
// #-comments ignored.
func readHex(t testing.TB, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var digits []byte
	for _, line := range bytes.Split(raw, []byte("\n")) {
		line, _, _ = bytes.Cut(line, []byte("#"))
		digits = append(digits, bytes.Join(bytes.Fields(line), nil)...)
	}
	out, err := hex.DecodeString(string(digits))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return out
}
