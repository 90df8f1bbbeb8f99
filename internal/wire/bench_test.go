package wire

import (
	"bytes"
	"io"
	"testing"

	"tunable/internal/bufpool"
)

// The BenchmarkWire* suite is recorded as BENCH_wire.json
// (scripts/bench_wire.sh) and gated by scripts/bench_check.sh: frame
// write/read, and the control-message codec on two representative
// shapes (a two-field body and the placement-time resolve).

// loopReader serves the same encoded frame forever, so read benchmarks
// measure decoding, not buffer refills.
type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.frame[l.off:])
	l.off = (l.off + n) % len(l.frame)
	return n, nil
}

func (l *loopReader) Write(p []byte) (int, error) { return len(p), nil }

var benchMsg = append([]byte{'S'}, bytes.Repeat([]byte{0xA5}, 256)...)

func BenchmarkWireWriteFrame(b *testing.B) {
	c := NewStream(struct {
		io.Reader
		io.Writer
	}{nil, io.Discard})
	b.SetBytes(int64(len(benchMsg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteMsg(benchMsg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireReadFrame(b *testing.B) {
	var buf bytes.Buffer
	w := NewStream(&duplex{in: &bytes.Buffer{}, out: &buf})
	if err := w.WriteMsg(benchMsg); err != nil {
		b.Fatal(err)
	}
	c := NewStream(&loopReader{frame: buf.Bytes()})
	b.SetBytes(int64(len(benchMsg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, err := c.ReadMsg()
		if err != nil {
			b.Fatal(err)
		}
		bufpool.Put(msg)
	}
}

// Mirrors of two control-message shapes — a two-field body (a string ID
// and a count) and the resolve request — so the suite times the codec
// without importing internal/cluster (which would cycle).

type benchHeartbeat struct {
	ID     string
	Active uint64
}

func (m *benchHeartbeat) codec(c *Codec) {
	c.Str(1, &m.ID, Required)
	c.Uint(2, &m.Active)
}

type benchResolve struct {
	SID     string
	Exclude []string
	CPU     float64
	Mem     int64
	Sig     string
	Coarse  bool
}

func (m *benchResolve) codec(c *Codec) {
	c.Str(1, &m.SID, Required)
	c.Strs(2, &m.Exclude)
	c.F64(3, &m.CPU)
	c.Sint(4, &m.Mem)
	c.Str(5, &m.Sig)
	c.Bool(6, &m.Coarse)
}

var (
	benchHB  = benchHeartbeat{ID: "node-0042", Active: 17}
	benchRes = benchResolve{SID: "session-123456", Exclude: []string{"node-0007", "node-0019"},
		CPU: 1.5, Mem: 512 << 20, Sig: "lzw/4+fovea", Coarse: true}
)

func BenchmarkWireEncodeHeartbeatSchema(b *testing.B) {
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewEncoder(buf[:0])
		benchHB.codec(c)
		buf = c.Bytes()
	}
	_ = buf
}

func BenchmarkWireEncodeResolveSchema(b *testing.B) {
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewEncoder(buf[:0])
		benchRes.codec(c)
		buf = c.Bytes()
	}
	_ = buf
}

func BenchmarkWireDecodeHeartbeatSchema(b *testing.B) {
	c := NewEncoder(nil)
	benchHB.codec(c)
	body := c.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var m benchHeartbeat
		c := NewDecoder(body)
		for c.Next() {
			m.codec(c)
		}
		if err := c.Err(); err != nil {
			b.Fatal(err)
		}
		if m.ID == "" || m.Active != 17 {
			b.Fatal("bad decode")
		}
	}
}

// The resolve body is walked field by field without copying, as a
// dispatch loop that only inspects fields would; the heartbeat variant
// above pays for materializing the message's string.
func BenchmarkWireDecodeResolveSchema(b *testing.B) {
	c := NewEncoder(nil)
	benchRes.codec(c)
	body := c.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewDecoder(body)
		var fields, excl, n int
		for c.Next() {
			switch c.tag {
			case 0: // the registration pass stops on no field
				continue
			case 2:
				excl++
			}
			fields++
			n += len(c.raw) + int(c.val&1)
		}
		if err := c.Err(); err != nil {
			b.Fatal(err)
		}
		if fields != 7 || excl != 2 || n == 0 {
			b.Fatal("bad decode")
		}
	}
}
