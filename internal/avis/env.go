package avis

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/metrics"
	"tunable/internal/netem"
	"tunable/internal/sandbox"
	"tunable/internal/vtime"
	"tunable/internal/wire"
)

// env is everything the session core (session.go, serve.go) needs from
// the substrate it runs on. There are exactly two: the virtual-time
// testbed every figure is measured on, and a TCP connection. The core
// never learns which one it has.
type env interface {
	// send puts one protocol message on the link.
	send(msg []byte) error
	// recv returns the next message, and the window the testbed carried by
	// reference after it (none on TCP). A positive stall bounds the wait and
	// yields errRoundStalled when it expires — the retransmission trigger
	// on a lossy simulated link. TCP ignores it: there the wire.Conn's
	// progress deadline is the only watchdog, and it surfaces as a
	// *TimeoutError that is never retried in place. A link the peer closed
	// yields an error matching io.EOF.
	recv(stall time.Duration) ([]byte, window, error)
	// release hands a received message back once nothing aliases it; a
	// window is never handed back.
	release(msg []byte)
	// now reads the clock QoS is measured on.
	now() time.Duration
	// compute charges processor cycles for work the core just did.
	compute(cycles float64)
}

// window is a segment payload the testbed carried by reference: b, a slice
// of the server's immutable shared reply, starts at offset at in it.
type window struct {
	b  []byte
	at int
}

// serverEnv adds the one server duty that is not transport-agnostic:
// putting a finished reply on the link. The testbed charges encodeCycles
// per raw byte slice by slice into a pipelined sender, and hands the
// bytes over by reference; TCP issues a single vectored write. The two
// share no arithmetic on purpose — the figures pin the first formula and
// testdata/reply_two_segments.hex the second.
type serverEnv interface {
	env
	reply(req Request, rawLen int, enc []byte, encodeCycles float64) error
}

// errRoundStalled reports a reply that stopped arriving within the retry
// timeout (a lost request or segment on a lossy link).
var errRoundStalled = errors.New("avis: round stalled")

// errLinkClosed is the testbed's end of stream.
var errLinkClosed = fmt.Errorf("avis: connection closed: %w", io.EOF)

// vtimeEnv runs the core inside the simulation: messages cross a
// netem.Endpoint, time is the calling process's virtual clock, and cycles
// are metered by a sandbox. p is rebound by the exported entry points,
// which each receive the process they run on.
type vtimeEnv struct {
	p  *vtime.Proc
	ep *netem.Endpoint
	sb *sandbox.Sandbox
	// out is where sends go: the endpoint's SendMsg for a client, the
	// queue feeding the sender process for a server (so compressing slice
	// k+1 overlaps transmitting slice k).
	out func(*vtime.Proc, netem.Message)
}

func (e *vtimeEnv) send(msg []byte) error {
	e.out(e.p, netem.Message{Payload: msg})
	return nil
}

func (e *vtimeEnv) recv(stall time.Duration) ([]byte, window, error) {
	for {
		var m netem.Message
		ok := false
		if stall > 0 {
			var ready bool
			if m, ok, ready = e.ep.RecvTimeout(e.p, stall); !ready {
				return nil, window{}, errRoundStalled
			}
		} else {
			m, ok = e.ep.Recv(e.p)
		}
		if !ok {
			return nil, window{}, errLinkClosed
		}
		if len(m.Payload) > 0 { // a link message may be empty; a frame never is
			return m.Payload, window{m.Ref, m.RefAt}, nil
		}
	}
}

func (e *vtimeEnv) release([]byte)         {}
func (e *vtimeEnv) now() time.Duration     { return e.p.Now() }
func (e *vtimeEnv) compute(cycles float64) { e.sb.Compute(e.p, cycles) }

// reply streams the compressed bytes in slices, charging the compression
// cost slice by slice so the sender process can overlap transmission.
// The only handler the testbed runs answers from the image store, whose
// replies are shared and immutable, so a slice goes out as its header
// with the window enc[off:end] by reference, and the headers of one reply
// are written into one arena sized for the whole reply.
func (e *vtimeEnv) reply(req Request, rawLen int, enc []byte, encodeCycles float64) error {
	total := len(enc)
	heads := make([]byte, 0, max(1, (total+DefaultSegmentBytes-1)/DefaultSegmentBytes)*segmentHeadLen)
	for off := 0; ; off += DefaultSegmentBytes {
		end := min(off+DefaultSegmentBytes, total)
		rawShare := float64(rawLen)
		if total > 0 {
			rawShare = float64(rawLen) * float64(end-off) / float64(total)
		}
		e.compute(encodeCycles * rawShare)
		h := len(heads)
		heads = appendSegmentHead(heads, Segment{Image: req.Image, Seq: req.Seq, Raw: int(rawShare + 0.5), Last: end == total})
		e.out(e.p, netem.Message{Payload: heads[h:len(heads):len(heads)], Ref: enc[off:end], RefAt: off})
		if end == total {
			return nil
		}
	}
}

// tcpEnv runs the core over a real connection: wall-clock time, the real
// cost of the real work (so cycles are not metered), pooled receive
// buffers, and missed progress deadlines surfaced as *TimeoutError.
type tcpEnv struct {
	wc       *wire.Conn
	epoch    time.Time
	segBytes int                 // reply segmentation (0 = DefaultSegmentBytes)
	onSeg    func(wireBytes int) // per-segment telemetry hook; may be nil
	timeouts *metrics.Counter    // avis_io_timeouts_total; nil-safe
}

func (e *tcpEnv) send(msg []byte) error { return e.mapErr("write", e.wc.WriteMsg(msg)) }

func (e *tcpEnv) recv(time.Duration) ([]byte, window, error) {
	msg, err := e.wc.ReadMsg()
	return msg, window{}, e.mapErr("read", err)
}

func (e *tcpEnv) release(msg []byte) { bufpool.Put(msg) }
func (e *tcpEnv) now() time.Duration { return time.Since(e.epoch) }
func (e *tcpEnv) compute(float64)    {}
func (e *tcpEnv) negotiate() error   { return e.mapErr("negotiate", e.wc.StartClient(0)) }

func (e *tcpEnv) reply(req Request, rawLen int, enc []byte, _ float64) error {
	return e.mapErr("write", WriteSegmentsWire(e.wc, req.Image, req.Seq, rawLen, enc, e.segBytes, e.onSeg))
}

// mapErr converts a missed deadline into a typed *TimeoutError and counts it.
func (e *tcpEnv) mapErr(op string, err error) error {
	if err == nil {
		return nil
	}
	err = WrapTimeout(op, e.wc.Timeout(), err)
	if errors.Is(err, ErrIOTimeout) {
		e.timeouts.Inc()
	}
	return err
}

// ErrIOTimeout is the sentinel matched by errors.Is for frame I/O that
// missed its deadline; the concrete error is always a *TimeoutError.
var ErrIOTimeout = errors.New("avis: i/o timeout")

// TimeoutError reports that a frame read or write made no progress within
// the configured I/O timeout — the peer is dead, wedged, or unreachable.
// It implements net.Error's Timeout contract and matches ErrIOTimeout
// under errors.Is.
type TimeoutError struct {
	Op    string        // "read", "write" or "negotiate"
	After time.Duration // the deadline that expired
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("avis: %s frame: no progress within %v (dead peer?)", e.Op, e.After)
}

// Timeout reports true, satisfying the net.Error convention.
func (e *TimeoutError) Timeout() bool { return true }

// Is matches ErrIOTimeout.
func (e *TimeoutError) Is(target error) bool { return target == ErrIOTimeout }

// WrapTimeout converts a deadline-exceeded network error into a typed
// *TimeoutError (matching ErrIOTimeout under errors.Is); other errors,
// including nil, pass through unchanged. The cluster control plane shares
// the data plane's failure vocabulary through it.
func WrapTimeout(op string, after time.Duration, err error) error {
	if err == nil {
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return &TimeoutError{Op: op, After: after}
	}
	return err
}

// IsTransportError reports whether err means the peer is dead, wedged, or
// unreachable — the class a caller answers by retrying elsewhere (the edge
// on a fresh origin connection, a failover client on a replacement node) —
// as opposed to an application-level refusal, which a replay would meet
// again.
func IsTransportError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrIOTimeout) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// Shape wraps a dialed connection with a bandwidth limit; exported here so
// the cmd tools need not import netem directly.
func Shape(conn net.Conn, bytesPerSec float64) net.Conn {
	if bytesPerSec <= 0 {
		return conn
	}
	return netem.NewShapedConn(conn, bytesPerSec)
}
