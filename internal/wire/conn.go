package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/metrics"
)

// Instruments carries the per-connection wire telemetry. All fields are
// nil-safe, so uninstrumented deployments pay nothing.
type Instruments struct {
	FramesV2 *metrics.Counter // wire_frames_total{version="2"}

	NegotiatedV2 *metrics.Counter // wire_negotiations_total{outcome="v2"}
	NegotiateErr *metrics.Counter // wire_negotiations_total{outcome="error"}
}

// NewInstruments registers (or finds) the standard wire metric families
// in reg: wire_frames_total labeled by protocol version, and
// wire_negotiations_total labeled by outcome. Registration is idempotent,
// so every component sharing a registry shares the counters.
func NewInstruments(reg *metrics.Registry) Instruments {
	const negHelp = "Version handshakes, by outcome (v2, error)."
	return Instruments{
		FramesV2: reg.Counter("wire_frames_total",
			"Protocol frames read or written, by protocol version.", metrics.L("version", "2")),
		NegotiatedV2: reg.Counter("wire_negotiations_total", negHelp, metrics.L("outcome", "v2")),
		NegotiateErr: reg.Counter("wire_negotiations_total", negHelp, metrics.L("outcome", "error")),
	}
}

// vectoredConn is the set of net.Conn implementations whose Write path
// supports true scatter-gather (net.Buffers.WriteTo compiles to one
// writev). Everything else — pipes, shaped conns, test streams — gets the
// coalesced single-Write fallback instead, which costs one copy but keeps
// one flush one syscall (and one rendezvous on synchronous pipes).
func vectoredConn(c net.Conn) bool {
	switch c.(type) {
	case *net.TCPConn, *net.UnixConn:
		return true
	}
	return false
}

// hdrLen is the frame header size: length(4) + type(1) + flags(1).
const hdrLen = 6

// pendingFrame is one queued frame: its header lives in the Conn's header
// arena (by offset, since the arena may grow), its payload in up to two
// caller-owned slices that must stay valid until the next flush.
type pendingFrame struct {
	hdrOff int
	p1, p2 []byte
}

// Conn frames messages over one stream. It owns the version and
// capability set the handshake agreed on, arms progress deadlines on the
// underlying net.Conn — surfacing arming failures instead of proceeding
// with an unarmed deadline on a half-closed socket — and guarantees that
// concurrently written frames never interleave on the wire: every flush
// is a single vectored write (or a single coalesced Write when the
// transport cannot gather), issued under the write lock.
//
// Reads return pooled buffers (bufpool); the consumer owns each returned
// message and may recycle it with bufpool.Put once decoded. Reads are not
// concurrency-safe — one goroutine owns the read side, as with any
// stream — but any number of goroutines may call WriteMsg.
//
// A message is its tag byte followed by the body. The tag travels in the
// frame header and is spliced back on read, so consumers handle one
// contiguous tag-prefixed slice.
type Conn struct {
	nc       net.Conn // nil when constructed over a plain stream
	rw       io.ReadWriter
	br       *bufio.Reader
	timeout  time.Duration
	ver      Version
	caps     Caps
	vectored bool
	accepted bool // handed out by an Acceptor: ReadMsg answers handshake probes
	inst     Instruments

	wmu    sync.Mutex
	hdrs   []byte // header arena for pending frames; reset each flush
	frames []pendingFrame
	bufs   net.Buffers // reusable scatter list
}

const readBufSize = 64 << 10

// NewConn frames messages over a network connection. timeout, when
// positive, is the per-operation progress deadline armed before every
// underlying read and write (the same discipline as avis frame I/O); 0
// waits forever.
func NewConn(c net.Conn, timeout time.Duration) *Conn {
	w := &Conn{nc: c, rw: c, timeout: timeout, vectored: vectoredConn(c)}
	w.br = bufio.NewReaderSize(readerFunc(w.read), readBufSize)
	return w
}

// NewStream frames messages over an arbitrary stream (tests, in-memory
// pipes). No deadlines are armed.
func NewStream(rw io.ReadWriter) *Conn {
	w := &Conn{rw: rw}
	w.br = bufio.NewReaderSize(readerFunc(w.read), readBufSize)
	return w
}

// readerFunc adapts a read method into an io.Reader for bufio.
type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// read arms the read deadline (surfacing arming errors) and reads.
func (c *Conn) read(p []byte) (int, error) {
	if c.nc != nil && c.timeout > 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return 0, fmt.Errorf("wire: arm read deadline: %w", err)
		}
	}
	return c.rw.Read(p)
}

// SetTimeout changes the per-operation progress deadline (0 disables).
// Call it before concurrent use begins.
func (c *Conn) SetTimeout(d time.Duration) { c.timeout = d }

// Timeout reports the per-operation progress deadline (0 = none).
func (c *Conn) Timeout() time.Duration { return c.timeout }

// SetInstruments installs telemetry counters (zero value = none).
func (c *Conn) SetInstruments(i Instruments) { c.inst = i }

// Version reports the protocol version the handshake agreed on (0 before
// the handshake).
func (c *Conn) Version() Version { return c.ver }

// Caps reports the capability set the handshake agreed on.
func (c *Conn) Caps() Caps { return c.caps }

// ReadMsg reads one message into a pooled buffer. The returned slice is
// tag-prefixed; the caller owns it and may recycle it with bufpool.Put
// after decoding. On a connection an Acceptor handed out, a handshake
// probe is answered in kind and the next message is returned instead.
func (c *Conn) ReadMsg() ([]byte, error) {
	var hdr [hdrLen]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary4(hdr[:4])
	if n > FrameLimit {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	// hdr[5] is the flags byte: reserved, tolerated, ignored — a future
	// sender may set bits an old reader skips, like unlisted field tags.
	msg := bufpool.Get(int(n) + 1)
	msg[0] = hdr[4]
	if _, err := io.ReadFull(c.br, msg[1:]); err != nil {
		bufpool.Put(msg)
		return nil, err
	}
	c.inst.FramesV2.Inc()
	if c.accepted && IsNegotiate(msg) {
		err := c.AcceptV2(msg, 0)
		bufpool.Put(msg)
		if err != nil {
			return nil, err
		}
		return c.ReadMsg()
	}
	return msg, nil
}

func binary4(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func put4(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// appendLocked queues one frame (msg split as head/payload; head carries
// the tag byte and may be the whole message). Callers hold wmu.
func (c *Conn) appendLocked(head, payload []byte) error {
	if len(head) == 0 {
		return fmt.Errorf("wire: empty message (no tag byte)")
	}
	size := len(head) + len(payload) - 1 // the tag byte rides in the header
	if size > FrameLimit {
		return &FrameSizeError{N: size, Limit: FrameLimit}
	}
	off := len(c.hdrs)
	c.hdrs = append(c.hdrs, 0, 0, 0, 0, head[0], 0)
	put4(c.hdrs[off:], uint32(size))
	c.frames = append(c.frames, pendingFrame{hdrOff: off, p1: head[1:], p2: payload})
	return nil
}

// flushLocked writes every queued frame in one vectored (or coalesced)
// write. Callers hold wmu.
func (c *Conn) flushLocked() error {
	if len(c.frames) == 0 {
		return nil
	}
	n := len(c.frames)
	defer func() {
		c.frames = c.frames[:0]
		c.hdrs = c.hdrs[:0]
	}()
	if c.nc != nil && c.timeout > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
			return fmt.Errorf("wire: arm write deadline: %w", err)
		}
	}
	var err error
	if c.vectored {
		c.bufs = c.bufs[:0]
		for _, f := range c.frames {
			c.bufs = append(c.bufs, c.hdrs[f.hdrOff:f.hdrOff+hdrLen])
			if len(f.p1) > 0 {
				c.bufs = append(c.bufs, f.p1)
			}
			if len(f.p2) > 0 {
				c.bufs = append(c.bufs, f.p2)
			}
		}
		bufs := c.bufs // WriteTo consumes its receiver; keep c.bufs reusable
		_, err = bufs.WriteTo(c.nc)
	} else {
		total := 0
		for _, f := range c.frames {
			total += hdrLen + len(f.p1) + len(f.p2)
		}
		buf := bufpool.Get(total)
		off := 0
		for _, f := range c.frames {
			off += copy(buf[off:], c.hdrs[f.hdrOff:f.hdrOff+hdrLen])
			off += copy(buf[off:], f.p1)
			off += copy(buf[off:], f.p2)
		}
		_, err = c.rw.Write(buf[:off])
		bufpool.Put(buf)
	}
	if err == nil {
		c.inst.FramesV2.Add(float64(n))
	}
	return err
}

// WriteMsg writes one tag-prefixed message as a single frame and flushes
// immediately (queued frames from AppendFrame go first, preserving
// order). Safe for concurrent use: the frame reaches the wire in one
// write, never interleaved with another writer's bytes.
func (c *Conn) WriteMsg(msg []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.appendLocked(msg, nil); err != nil {
		return err
	}
	return c.flushLocked()
}

// AppendFrame queues one tag-prefixed message for the next Flush. The
// payload must stay valid until the flush. Use it to gather a multi-frame
// reply into one vectored write.
func (c *Conn) AppendFrame(msg []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.appendLocked(msg, nil)
}

// AppendFrame2 queues one frame whose logical message is head followed by
// payload (head[0] is the tag byte) — the zero-copy shape for framing a
// small message header around a large payload without gluing them into
// one buffer first. Both slices must stay valid until the flush.
func (c *Conn) AppendFrame2(head, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.appendLocked(head, payload)
}

// Flush writes every queued frame in one vectored write.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

// StartClient performs the client side of the handshake: it sends a probe
// advertising MaxVersion and want, reads exactly one reply, and adopts
// the agreed version and capability set. A peer that answers with
// anything but a handshake of version ≥ 2 is refused with a
// *HandshakeError; the connection is never downgraded.
func (c *Conn) StartClient(want Caps) error {
	var (
		probe [negotiateLen]byte
		ver   Version
		caps  Caps
	)
	err := c.WriteMsg(appendNegotiate(probe[:0], MaxVersion, want))
	if err == nil {
		var reply []byte
		if reply, err = c.ReadMsg(); err == nil {
			ver, caps, err = parseNegotiate(reply)
			bufpool.Put(reply)
		}
	}
	return c.settle(ver, want&caps, err)
}

// AcceptV2 performs the server side of the handshake for a probe the
// application loop just read (checked with IsNegotiate): it answers with
// this build's version and offer, then adopts the agreed version and
// capability set. A probe announcing a version below 2 is refused with a
// *HandshakeError and gets no reply.
func (c *Conn) AcceptV2(probe []byte, offer Caps) error {
	ver, caps, err := parseNegotiate(probe)
	if err == nil {
		var reply [negotiateLen]byte
		err = c.WriteMsg(appendNegotiate(reply[:0], MaxVersion, offer))
	}
	return c.settle(ver, offer&caps, err)
}

// settle records a handshake's outcome: on success the connection runs
// the lower of the two versions with the ANDed capability set.
func (c *Conn) settle(peer Version, caps Caps, err error) error {
	if err != nil {
		c.inst.NegotiateErr.Inc()
		return err
	}
	c.ver, c.caps = min(peer, MaxVersion), caps
	c.inst.NegotiatedV2.Inc()
	return nil
}
