// Package netem emulates network links with controllable bandwidth,
// latency, and loss. It provides two implementations of the same behaviour:
//
//   - Link, a duplex simulated link running on the vtime kernel, used by
//     the profiling testbed and the adaptation experiments. Bandwidth is
//     enforced by serialization delay at frame granularity, so dynamic
//     SetBandwidth calls take effect within one frame — this is how the
//     experiments in Section 7 drop the client's bandwidth mid-run.
//
//   - ShapedConn, a token-bucket wrapper for real net.Conn connections,
//     used by the cmd/ tools when the application runs over actual TCP
//     (the paper delays sends/receives to enforce the bandwidth an
//     application sees; the token bucket produces the same average rate).
package netem

import (
	"fmt"
	"time"

	"tunable/internal/metrics"
	"tunable/internal/prng"
	"tunable/internal/vtime"
)

// FrameSize is the serialization granularity of simulated links. Bandwidth
// changes apply from the next frame boundary.
const FrameSize = 4096

// Message is a unit of delivery on a simulated link: Payload, then Ref, a
// second part carried by reference. The link charges, counts, drops and
// delivers the pair exactly as one message of Len() bytes, and hands the
// receiver the sender's own slices.
type Message struct {
	Payload []byte
	Ref     []byte
	RefAt   int           // where Ref starts in the sender's buffer; out of band, not charged
	SentAt  time.Duration // virtual time the last frame left the sender
}

// Len is the message's size on the wire.
func (m Message) Len() int { return len(m.Payload) + len(m.Ref) }

// Counters accumulates per-direction traffic statistics; the monitoring
// agent derives observed bandwidth from them.
type Counters struct {
	BytesSent     int64
	MsgsSent      int64
	BytesDropped  int64
	MsgsDropped   int64
	SendBusy      time.Duration // cumulative time senders spent serializing/queueing
	BytesReceived int64
	MsgsReceived  int64
	RecvWait      time.Duration // cumulative time receivers spent blocked
}

// direction is one half of a duplex link.
type direction struct {
	sim       *vtime.Sim
	name      string
	bandwidth float64 // bytes per second
	latency   time.Duration
	lossRate  float64
	rng       *prng.Splitmix
	busyUntil time.Duration
	inbox     *vtime.Chan[Message]
	ctr       Counters

	// telemetry instruments; nil (no-op) unless Link.EnableMetrics ran
	mBytesShaped  *metrics.Counter
	mBytesDropped *metrics.Counter
	mMsgsDropped  *metrics.Counter
	mQueueDelay   *metrics.Histogram
	mBandwidth    *metrics.Gauge
}

// Link is a duplex point-to-point link between two endpoints, A and B.
type Link struct {
	ab *direction // A→B
	ba *direction // B→A
}

// LinkOption customizes link construction.
type LinkOption func(*Link)

// WithLatency sets one-way latency for both directions (default 500 µs,
// a switched-LAN figure comparable to the paper's 100 Mbps Ethernet).
func WithLatency(d time.Duration) LinkOption {
	return func(l *Link) { l.ab.latency, l.ba.latency = d, d }
}

// WithLoss sets a message loss probability for both directions (default 0).
func WithLoss(p float64) LinkOption {
	return func(l *Link) { l.ab.lossRate, l.ba.lossRate = p, p }
}

// NewLink creates a duplex link with the given bandwidth in bytes/second
// applied to each direction independently. A zero or negative bandwidth is
// a programming error (serialization delay would be infinite and the
// simulation would hang) and panics.
func NewLink(sim *vtime.Sim, name string, bandwidth float64, opts ...LinkOption) *Link {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("netem: link %s: invalid bandwidth %g (must be > 0)", name, bandwidth))
	}
	mk := func(dir string) *direction {
		return &direction{
			sim:       sim,
			name:      name + "/" + dir,
			bandwidth: bandwidth,
			latency:   500 * time.Microsecond,
			rng:       prng.New(prng.Hash(name + dir)),
			inbox:     vtime.NewNamedChan[Message](sim, 1<<20, name+"/"+dir),
		}
	}
	l := &Link{ab: mk("ab"), ba: mk("ba")}
	for _, o := range opts {
		o(l)
	}
	return l
}

// EnableMetrics instruments both directions of the link. Metric families:
// netem_bytes_shaped_total (bytes serialized onto the wire, including
// later-dropped ones), netem_bytes_dropped_total, netem_msgs_dropped_total,
// netem_queue_delay_seconds (time a sender spent serializing and queueing
// behind earlier traffic per message), and netem_bandwidth_bytes_per_sec,
// all labelled by link direction.
func (l *Link) EnableMetrics(reg *metrics.Registry) {
	for _, d := range []*direction{l.ab, l.ba} {
		lbl := metrics.L("dir", d.name)
		d.mBytesShaped = reg.Counter("netem_bytes_shaped_total",
			"Bytes serialized onto the link.", lbl)
		d.mBytesDropped = reg.Counter("netem_bytes_dropped_total",
			"Bytes lost to link loss or a closed peer.", lbl)
		d.mMsgsDropped = reg.Counter("netem_msgs_dropped_total",
			"Messages lost to link loss or a closed peer.", lbl)
		d.mQueueDelay = reg.Histogram("netem_queue_delay_seconds",
			"Per-message time spent serializing and queueing.", lbl)
		d.mBandwidth = reg.Gauge("netem_bandwidth_bytes_per_sec",
			"Configured link bandwidth.", lbl)
		d.mBandwidth.Set(d.bandwidth)
	}
}

// A returns the endpoint on the A side (sends A→B, receives B→A).
func (l *Link) A() *Endpoint { return &Endpoint{out: l.ab, in: l.ba} }

// B returns the endpoint on the B side.
func (l *Link) B() *Endpoint { return &Endpoint{out: l.ba, in: l.ab} }

// SetBandwidth reconfigures both directions; it takes effect at the next
// frame boundary.
func (l *Link) SetBandwidth(bps float64) error {
	if bps <= 0 {
		return fmt.Errorf("netem: invalid bandwidth %g", bps)
	}
	l.ab.bandwidth = bps
	l.ba.bandwidth = bps
	l.ab.mBandwidth.Set(bps)
	l.ba.mBandwidth.Set(bps)
	return nil
}

// Bandwidth returns the current A→B bandwidth in bytes/second.
func (l *Link) Bandwidth() float64 { return l.ab.bandwidth }

// SetLatency reconfigures one-way latency for both directions.
func (l *Link) SetLatency(d time.Duration) {
	l.ab.latency = d
	l.ba.latency = d
}

// Latency returns the current A→B one-way latency.
func (l *Link) Latency() time.Duration { return l.ab.latency }

// SetLoss reconfigures the message loss probability for both directions;
// it applies to messages sent after the call. Loss 1 black-holes the link
// (a full partition): every message is serialized and then dropped.
func (l *Link) SetLoss(p float64) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("netem: invalid loss rate %g", p)
	}
	l.ab.lossRate = p
	l.ba.lossRate = p
	return nil
}

// Loss returns the current A→B loss probability.
func (l *Link) Loss() float64 { return l.ab.lossRate }

// Endpoint is one side of a duplex link.
type Endpoint struct {
	out *direction
	in  *direction
}

// Send transmits a one-part message; see SendMsg.
func (e *Endpoint) Send(p *vtime.Proc, payload []byte) { e.SendMsg(p, Message{Payload: payload}) }

// SendMsg transmits msg, blocking the calling process for the
// serialization time (msg.Len()/bandwidth) plus any queueing behind
// earlier messages in the same direction; delivery into the peer's inbox
// happens one latency later. Lost messages still consume serialization
// time (the bits were sent) but never arrive.
func (e *Endpoint) SendMsg(p *vtime.Proc, msg Message) {
	d := e.out
	start := p.Now()
	n := msg.Len()
	for remaining := n; remaining > 0; {
		frame := remaining
		if frame > FrameSize {
			frame = FrameSize
		}
		bw := d.bandwidth
		ser := time.Duration(float64(frame) / bw * float64(time.Second))
		if d.busyUntil < p.Now() {
			d.busyUntil = p.Now()
		}
		d.busyUntil += ser
		p.SleepUntil(d.busyUntil)
		remaining -= frame
	}
	d.ctr.SendBusy += p.Now() - start
	d.ctr.BytesSent += int64(n)
	d.ctr.MsgsSent++
	d.mBytesShaped.Add(float64(n))
	d.mQueueDelay.Observe((p.Now() - start).Seconds())
	if d.lossRate > 0 && d.rng.Float64() < d.lossRate {
		d.drop(n)
		return
	}
	msg.SentAt = p.Now()
	deliver := func() {
		// Frames still in flight when the connection closes are dropped,
		// as on a real network.
		if d.inbox.Closed() {
			d.drop(n)
			return
		}
		if !d.inbox.TrySend(msg) {
			panic("netem: inbox overflow on " + d.name)
		}
	}
	lat := d.latency
	if lat <= 0 {
		deliver()
		return
	}
	d.sim.After(lat, deliver)
}

// drop counts one lost message of n bytes.
func (d *direction) drop(n int) {
	d.ctr.BytesDropped += int64(n)
	d.ctr.MsgsDropped++
	d.mBytesDropped.Add(float64(n))
	d.mMsgsDropped.Inc()
}

// Recv blocks until a message arrives and returns it.
func (e *Endpoint) Recv(p *vtime.Proc) (Message, bool) {
	start := p.Now()
	msg, ok := e.in.inbox.Recv(p)
	e.received(p, start, msg, ok)
	return msg, ok
}

// RecvTimeout is Recv with a deadline; ready=false on timeout.
func (e *Endpoint) RecvTimeout(p *vtime.Proc, d time.Duration) (msg Message, ok, ready bool) {
	start := p.Now()
	msg, ok, ready = e.in.inbox.RecvTimeout(p, d)
	e.received(p, start, msg, ready && ok)
	return msg, ok, ready
}

// received counts one receive that waited since start and got msg if got.
func (e *Endpoint) received(p *vtime.Proc, start time.Duration, msg Message, got bool) {
	e.in.ctr.RecvWait += p.Now() - start
	if got {
		e.in.ctr.BytesReceived += int64(msg.Len())
		e.in.ctr.MsgsReceived++
	}
}

// Close closes the incoming direction's inbox, waking blocked receivers on
// the *peer* side of subsequent Recv calls with ok=false.
func (e *Endpoint) Close() { e.out.inbox.Close() }

// OutCounters returns a snapshot of the outgoing direction's counters:
// what this side sent and what the peer received of it.
func (e *Endpoint) OutCounters() Counters { return e.out.ctr }
