package edge

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"tunable/internal/avis"
	"tunable/internal/wire"
)

// stubOrigin is a scripted origin: it completes the handshake and the
// hello like a real server, then hands every region request to onRequest,
// which writes whatever reply the test wants (or returns false to hang up
// instead). It counts the connections and requests it sees.
type stubOrigin struct {
	ln        net.Listener
	accept    wire.Acceptor
	conns     atomic.Int64
	requests  atomic.Int64
	onRequest func(n int64, wc *wire.Conn, req avis.Request) bool
}

func startStubOrigin(t *testing.T, onRequest func(n int64, wc *wire.Conn, req avis.Request) bool) *stubOrigin {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubOrigin{ln: ln, onRequest: onRequest}
	go func() { _ = s.accept.Serve(ln, 5*time.Second, wire.Instruments{}, s.handle) }()
	t.Cleanup(func() { s.accept.Shutdown(0) })
	return s
}

func (s *stubOrigin) handle(wc *wire.Conn) {
	s.conns.Add(1)
	for {
		msg, err := wc.ReadMsg()
		if err != nil {
			return
		}
		switch msg[0] {
		case 'H':
			geom := make([]byte, 13)
			geom[0] = 'G'
			binary.LittleEndian.PutUint32(geom[1:], testSide)
			binary.LittleEndian.PutUint32(geom[5:], testLevels)
			binary.LittleEndian.PutUint32(geom[9:], uint32(len(testSeeds)))
			if wc.WriteMsg(geom) != nil {
				return
			}
		case 'R':
			req, err := avis.DecodeRequest(msg)
			if err != nil || !s.onRequest(s.requests.Add(1), wc, req) {
				return
			}
		case 'C':
			return
		}
	}
}

// TestEdgeOriginLegNeverServesStaleBytes: an origin reply that turns
// malformed mid-way fails its round, and whatever of it is still unread
// must not be taken as the answer to the next request — neither returned
// to a client nor cached. The origin-leg connection the round failed on
// is discarded; the next round runs on a fresh one.
func TestEdgeOriginLegNeverServesStaleBytes(t *testing.T) {
	origin := startStubOrigin(t, func(n int64, wc *wire.Conn, req avis.Request) bool {
		if n == 1 {
			// segment, short 'S' frame, last segment("STALE"): the client
			// fails on the second frame and never reads the third.
			if wc.AppendFrame([]byte{'S', 0, 0, 0, 0, 2, 0, 0, 0, byte(req.Seq), 0, 0, 0, 0, 'x', 'x'}) != nil ||
				wc.AppendFrame([]byte{'S', 1, 2}) != nil {
				return false
			}
			return avis.WriteSegmentsWire(wc, req.Image, req.Seq, 5, []byte("STALE"), 0, nil) == nil
		}
		fresh := []byte(fmt.Sprintf("FRESH-%d", n))
		return avis.WriteSegmentsWire(wc, req.Image, req.Seq, len(fresh), fresh, 0, nil) == nil
	})
	p, edgeLn := startEdge(t, origin.ln.Addr().String(), nil, func(cfg *Config) {
		cfg.OriginCodec = "raw" // the stub's payloads pass through verbatim
	})
	c := dialClient(t, edgeLn.Addr().String(), avis.Params{DR: 16, Codec: "raw", Level: 2}, 0)

	reqA := avis.Request{Image: 0, X: 64, Y: 64, R: 16, Level: 2}
	reqB := avis.Request{Image: 0, X: 64, Y: 64, R: 32, PrevR: 16, Level: 2}
	var refused *avis.RefusedError
	if _, _, err := c.FetchRoundRaw(reqA); !errors.As(err, &refused) {
		t.Fatalf("round 1: err %v, want the edge's error frame for the malformed origin reply", err)
	}
	for i, want := range []string{"FRESH-2", "FRESH-2", "FRESH-3"} {
		req := reqB
		if i == 2 {
			req = reqA // nothing may have been cached for the failed round either
		}
		data, _, err := c.FetchRoundRaw(req)
		if err != nil {
			t.Fatalf("round %d: %v", i+2, err)
		}
		if string(data) != want {
			t.Fatalf("round %d returned %q, want %q", i+2, data, want)
		}
	}
	// Start's handshake connection carried the failed round and was
	// discarded; one fresh connection carried everything after.
	if got := origin.conns.Load(); got != 2 {
		t.Fatalf("origin saw %d connections, want 2", got)
	}
	if st := p.Stats(); st.Hits != 1 || st.Entries != 2 {
		t.Fatalf("cache stats %+v, want 1 hit over 2 entries", st)
	}
}

// TestEdgeNegativeOriginRetriesMeansOneAttempt: originRetries < 0 is
// documented as "no retries" — one origin round whose failure surfaces —
// not zero rounds and an empty payload served as success.
func TestEdgeNegativeOriginRetriesMeansOneAttempt(t *testing.T) {
	origin := startStubOrigin(t, func(int64, *wire.Conn, avis.Request) bool {
		return false // hang up: a transport failure on the origin leg
	})
	_, edgeLn := startEdge(t, origin.ln.Addr().String(), nil, func(cfg *Config) {
		cfg.originRetries = -1
	})
	c := dialClient(t, edgeLn.Addr().String(), avis.Params{DR: 16, Codec: "raw", Level: 2}, 0)
	data, _, err := c.FetchRoundRaw(avis.Request{Image: 0, X: 64, Y: 64, R: 16, Level: 2})
	if !avis.IsTransportError(err) {
		t.Fatalf("round returned %d bytes, err %v; want the dropped connection of a failed origin round", len(data), err)
	}
	if got := origin.requests.Load(); got != 1 {
		t.Fatalf("origin saw %d rounds, want exactly 1", got)
	}
}
