package netem

import (
	"net"
	"sync"
	"time"

	"tunable/internal/metrics"
)

// ShapedConn wraps a real net.Conn with token-bucket bandwidth shaping, the
// real-network analogue of the paper's delayed sends and receives. It is
// used by the cmd/ tools when the visualization application runs over
// actual TCP; the simulated experiments use Link instead.
type ShapedConn struct {
	net.Conn

	rate  float64 // bytes per second, fixed at construction; 0 disables shaping
	burst float64 // bucket capacity in bytes

	mu     sync.Mutex // serialises concurrent writers on the bucket
	tokens float64
	last   time.Time

	// telemetry instruments; nil (no-op) unless EnableMetrics ran
	mBytesShaped   *metrics.Counter
	mThrottleWaits *metrics.Counter
}

// EnableMetrics instruments the connection: netem_conn_bytes_shaped_total
// counts bytes admitted through the token bucket and
// netem_conn_throttle_waits_total counts the sleeps the bucket imposed.
func (c *ShapedConn) EnableMetrics(reg *metrics.Registry) {
	c.mBytesShaped = reg.Counter("netem_conn_bytes_shaped_total",
		"Bytes written through the token-bucket shaper.")
	c.mThrottleWaits = reg.Counter("netem_conn_throttle_waits_total",
		"Times a write slept waiting for shaping tokens.")
}

// NewShapedConn wraps conn with a bandwidth limit in bytes/second. A zero
// or negative rate disables shaping.
func NewShapedConn(conn net.Conn, bytesPerSec float64) *ShapedConn {
	burst := bytesPerSec / 8
	if burst < frameSize {
		burst = frameSize
	}
	return &ShapedConn{
		Conn:   conn,
		rate:   bytesPerSec,
		burst:  burst,
		tokens: burst,
		last:   time.Now(),
	}
}

func (c *ShapedConn) refillLocked(now time.Time) {
	dt := now.Sub(c.last).Seconds()
	if dt > 0 {
		c.tokens += dt * c.rate
		if c.tokens > c.burst {
			c.tokens = c.burst
		}
		c.last = now
	}
}

// take blocks until n tokens are available and consumes them.
func (c *ShapedConn) take(n int) {
	for n > 0 {
		c.mu.Lock()
		if c.rate <= 0 {
			c.mu.Unlock()
			return
		}
		now := time.Now()
		c.refillLocked(now)
		chunk := float64(n)
		if chunk > c.burst {
			chunk = c.burst
		}
		if c.tokens >= chunk {
			c.tokens -= chunk
			n -= int(chunk)
			c.mu.Unlock()
			continue
		}
		deficit := chunk - c.tokens
		wait := time.Duration(deficit / c.rate * float64(time.Second))
		c.mu.Unlock()
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		c.mThrottleWaits.Inc()
		time.Sleep(wait)
	}
}

// Write shapes outgoing traffic to the configured rate.
func (c *ShapedConn) Write(b []byte) (int, error) {
	written := 0
	for written < len(b) {
		end := written + frameSize
		if end > len(b) {
			end = len(b)
		}
		c.take(end - written)
		n, err := c.Conn.Write(b[written:end])
		written += n
		c.mBytesShaped.Add(float64(n))
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
