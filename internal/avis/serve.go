package avis

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/compress"
	"tunable/internal/metrics"
	"tunable/internal/wire"
)

// DefaultSegmentBytes is the compressed-slice size of a pipelined reply:
// the server charges its compression cost, and the client its decode and
// display cost, per slice, so compression, transmission, and
// decompression of one round overlap as they do in the paper's streaming
// server.
const DefaultSegmentBytes = 8 << 10

// Handler is what one server differs from another in behind the shared
// dispatch loop: where a request's finished reply comes from — the image
// store's encoded-reply cache on an origin, the chunk cache → single-flight
// → origin leg on an edge — and who is told how the request went. The loop
// itself never compresses: whoever made the bytes may have made them for
// an earlier request, and only the handler can know.
type Handler interface {
	// Reply returns the reply body answering req: the chunk bytes already
	// compressed with codec (the one the client last announced), and
	// rawLen, their pre-compression length, which the segment headers and
	// the testbed's cost model are computed from. pooled reports that enc
	// came from bufpool and is the loop's to recycle once written;
	// otherwise it is shared and only read. An error matching
	// IsTransportError drops the connection; any other is sent to the
	// client as an error frame.
	Reply(req Request, codec compress.Codec) (enc []byte, rawLen int, pooled bool, err error)
	// Replied observes one answered message: a request whose reply went
	// out in full (err nil; took spans decode to the last byte handed to
	// the link), or any message answered with an error frame carrying err.
	Replied(took time.Duration, err error)
}

// ServeConn runs the server half of the protocol on one accepted
// connection until the client closes it: geometry handshake, codec
// announcements, and region requests answered by h under the codec the
// client last announced, segmented at segBytes (0 = the protocol default)
// exactly as an origin server would.
func ServeConn(wc *wire.Conn, geom Geometry, segBytes int, h Handler) error {
	s := newServerSession(geom, h, nil)
	return s.run(&tcpEnv{wc: wc, epoch: time.Now(), segBytes: segBytes})
}

// serverSession is the server half of one session: the codec the client
// last announced (Figure 2's notify_server_compression_type) and the
// message loop around it, written once for every transport and every
// payload source.
type serverSession struct {
	geom  Geometry
	cost  CostModel // zero on TCP
	h     Handler
	tel   *serverTelemetry // nil on an edge, which keeps instruments of its own
	codec compress.Codec
}

func newServerSession(geom Geometry, h Handler, tel *serverTelemetry) serverSession {
	raw, _ := compress.Lookup("raw")
	return serverSession{geom: geom, h: h, tel: tel, codec: raw}
}

var errUnknownMessage = errors.New("unknown message")

// run services the session over e until the client closes it: hello →
// geometry, notify → codec switch, request → Reply, segments.
// Anything malformed or unknown is answered with an error frame and the
// session continues.
func (s *serverSession) run(e serverEnv) error {
	for {
		msg, _, err := e.recv(0)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		start := e.now()
		var refusal error // what an error frame will say
		switch msg[0] {
		case tagHello:
			err = e.send(encodeGeom(s.geom))
		case tagNotify:
			var name string
			var codec compress.Codec
			if name, refusal = decodeNotify(msg); refusal == nil {
				codec, refusal = compress.Lookup(name)
			}
			if refusal == nil {
				s.codec = codec
				s.tel.notified()
			}
		case tagRequest:
			var req Request
			if req, refusal = DecodeRequest(msg); refusal == nil {
				refusal = s.answer(e, req)
			}
			if refusal == nil {
				s.h.Replied(e.now()-start, nil)
			} else if IsTransportError(refusal) {
				// The link failed, or the handler's own upstream did:
				// nothing truthful can be sent, so drop the connection and
				// let the client fail over.
				e.release(msg)
				return refusal
			}
		case tagClose:
			e.release(msg)
			return nil
		default:
			refusal = errUnknownMessage
		}
		e.release(msg)
		if refusal != nil {
			s.h.Replied(0, refusal)
			err = e.send(encodeError(refusal.Error()))
		}
		if err != nil {
			return err
		}
	}
}

// answer serves one region request: the handler's finished bytes, put on
// the link.
func (s *serverSession) answer(e serverEnv, req Request) error {
	enc, rawLen, pooled, err := s.h.Reply(req, s.codec)
	if err != nil {
		return err
	}
	err = e.reply(req, rawLen, enc, s.cost.EncodeCyclesPerByte*s.codec.EncodeCost())
	if pooled {
		bufpool.Put(enc)
	}
	return err
}

// ServerStats is a point-in-time snapshot of the server-side counters.
type ServerStats struct {
	Requests        int64
	RawBytes        int64
	CompressedBytes int64
	Notifies        int64
	Errors          int64
	// EncodeCalls counts the replies this server had to extract and
	// compress; EncodedCacheHits the ones the store already held (or was
	// already making for another session). Their sum is the requests
	// answered with data.
	EncodeCalls      int64
	EncodedCacheHits int64
}

// serverTelemetry is the live form of ServerStats plus the origin
// servers' instruments. The counters are atomics — the sim server's
// sender runs as its own goroutine-backed process, and a real server's
// handlers all bump them while Stats is read — and every instrument is
// nil (a no-op) unless EnableMetrics ran. Methods tolerate a nil receiver:
// an edge proxy runs the same loop with instruments of its own.
type serverTelemetry struct {
	requests        atomic.Int64
	rawBytes        atomic.Int64
	compressedBytes atomic.Int64
	notifies        atomic.Int64
	errors          atomic.Int64
	encodeCalls     atomic.Int64
	encodedHits     atomic.Int64

	mRequests    *metrics.Counter
	mReqSeconds  *metrics.Histogram
	mErrors      *metrics.Counter
	mCodecSwitch *metrics.Counter
	mCodec       map[string]*codecInstruments // observed when an encode really ran

	mEncodedHits   *metrics.Counter
	mEncodedMisses *metrics.Counter
}

func (t *serverTelemetry) snapshot() ServerStats {
	return ServerStats{
		Requests:        t.requests.Load(),
		RawBytes:        t.rawBytes.Load(),
		CompressedBytes: t.compressedBytes.Load(),
		Notifies:        t.notifies.Load(),
		Errors:          t.errors.Load(),

		EncodeCalls:      t.encodeCalls.Load(),
		EncodedCacheHits: t.encodedHits.Load(),
	}
}

func (t *serverTelemetry) notified() {
	if t == nil {
		return
	}
	t.notifies.Add(1)
	t.mCodecSwitch.Inc()
}

// pyramids is the origin's Handler: region requests are answered from the
// image store — its encoded-reply cache, or on a miss by extraction from
// the image set's wavelet pyramids and compression — with the testbed's
// per-request and per-coefficient costs charged to env whichever it was:
// virtual time models the paper's server, which has no such cache, so a
// hit saves wall time only. On TCP the charges are no-ops, so a
// RealServer's connections all share one handler.
type pyramids struct {
	geom  Geometry
	seeds []int64
	store *ImageStore
	cost  CostModel
	tel   *serverTelemetry
	env   env
}

func (h *pyramids) Reply(req Request, codec compress.Codec) ([]byte, int, bool, error) {
	tel := h.tel
	tel.requests.Add(1)
	tel.mRequests.Inc()
	if req.Image < 0 || req.Image >= len(h.seeds) {
		return nil, 0, false, fmt.Errorf("image %d out of range", req.Image)
	}
	if req.Level < 0 || req.Level > h.geom.Levels {
		return nil, 0, false, fmt.Errorf("level %d out of range", req.Level)
	}
	h.env.compute(h.cost.RequestOverheadCycles)
	name := codec.Name()
	r, encoded, took, err := h.store.reply(encodedKey{
		pyramidKey: pyramidKey{h.geom.Side, h.geom.Levels, h.seeds[req.Image]},
		level:      req.Level, x: req.X, y: req.Y, r: req.R, prevR: req.PrevR,
		codec: name,
	}, codec)
	if err != nil {
		return nil, 0, false, err
	}
	h.env.compute(h.cost.ExtractCyclesPerCoeff * float64(r.rawLen))
	tel.rawBytes.Add(int64(r.rawLen))
	tel.compressedBytes.Add(int64(len(r.enc)))
	if encoded {
		tel.encodeCalls.Add(1)
		tel.mEncodedMisses.Inc()
		tel.mCodec[name].observe(took.Seconds(), r.rawLen, len(r.enc))
	} else {
		tel.encodedHits.Add(1)
		tel.mEncodedHits.Inc()
	}
	return r.enc, r.rawLen, false, nil
}

func (h *pyramids) Replied(took time.Duration, err error) {
	if err != nil {
		h.tel.errors.Add(1)
		h.tel.mErrors.Inc()
		return
	}
	h.tel.mReqSeconds.Observe(took.Seconds())
}
