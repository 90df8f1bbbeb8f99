package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/metrics"
)

// duplex is an in-memory bidirectional stream for single-goroutine tests.
type duplex struct {
	in  *bytes.Buffer
	out *bytes.Buffer
}

func (d *duplex) Read(p []byte) (int, error)  { return d.in.Read(p) }
func (d *duplex) Write(p []byte) (int, error) { return d.out.Write(p) }

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewStream(&duplex{in: &bytes.Buffer{}, out: &buf})
	msgs := [][]byte{
		{'H'},
		append([]byte{'S'}, bytes.Repeat([]byte{0xAB}, 300)...),
		{'N', 1, 2, 3},
	}
	for _, m := range msgs {
		if err := w.WriteMsg(m); err != nil {
			t.Fatalf("WriteMsg: %v", err)
		}
	}
	r := NewStream(&duplex{in: &buf, out: &bytes.Buffer{}})
	for i, want := range msgs {
		got, err := r.ReadMsg()
		if err != nil {
			t.Fatalf("ReadMsg %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("msg %d: got %x want %x", i, got, want)
		}
		bufpool.Put(got)
	}
}

func TestV2FrameLayout(t *testing.T) {
	var buf bytes.Buffer
	w := NewStream(&duplex{in: &bytes.Buffer{}, out: &buf})
	if err := w.WriteMsg([]byte{'R', 9, 8, 7}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) != 6+3 {
		t.Fatalf("frame length %d, want 9", len(b))
	}
	if n := binary.LittleEndian.Uint32(b[:4]); n != 3 {
		t.Fatalf("header length %d, want 3 (excludes tag)", n)
	}
	if b[4] != 'R' {
		t.Fatalf("type byte %q, want 'R'", b[4])
	}
	if b[5] != 0 {
		t.Fatalf("flags byte %d, want 0", b[5])
	}
	if !bytes.Equal(b[6:], []byte{9, 8, 7}) {
		t.Fatalf("payload %x", b[6:])
	}
}

func TestAppendFrame2GathersOneMessage(t *testing.T) {
	var buf bytes.Buffer
	w := NewStream(&duplex{in: &bytes.Buffer{}, out: &buf})
	head := []byte{'S', 0, 1}
	payload := bytes.Repeat([]byte{7}, 50)
	if err := w.AppendFrame2(head, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendFrame([]byte{'E', 42}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewStream(&duplex{in: &buf, out: &bytes.Buffer{}})
	m1, err := r.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1, append(append([]byte{}, head...), payload...)) {
		t.Fatalf("gathered frame mismatch (%d bytes)", len(m1))
	}
	m2, err := r.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m2, []byte{'E', 42}) {
		t.Fatalf("second frame %x", m2)
	}
}

func TestFrameSizeErrorOnSend(t *testing.T) {
	w := NewStream(&duplex{in: &bytes.Buffer{}, out: &bytes.Buffer{}})
	big := make([]byte, FrameLimit+2) // tag + one payload byte too many
	big[0] = 'S'
	err := w.WriteMsg(big)
	if err == nil {
		t.Fatal("oversize frame accepted")
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("error %v does not match ErrFrameTooLarge", err)
	}
	var fse *FrameSizeError
	if !errors.As(err, &fse) {
		t.Fatalf("error %T is not *FrameSizeError", err)
	}
	if fse.N != FrameLimit+1 || fse.Limit != FrameLimit {
		t.Fatalf("FrameSizeError = %+v", fse)
	}
	// The tag byte rides in the header, so a message of limit+1 bytes is
	// exactly a full frame.
	if err := w.WriteMsg(big[:FrameLimit+1]); err != nil {
		t.Fatalf("frame of limit+tag bytes rejected: %v", err)
	}
}

// capTest stands in for a capability bit; none is assigned yet.
const capTest Caps = 1

func TestNegotiateV2BothSides(t *testing.T) {
	reg := metrics.New()
	inst := NewInstruments(reg)
	cliConn, srvConn := net.Pipe()
	cli := NewConn(cliConn, time.Second)
	srv := NewConn(srvConn, time.Second)
	cli.SetInstruments(inst)
	srv.SetInstruments(inst)

	done := make(chan error, 1)
	go func() {
		msg, err := srv.ReadMsg()
		if err != nil {
			done <- err
			return
		}
		if !IsNegotiate(msg) {
			done <- fmt.Errorf("first message %x is not a probe", msg)
			return
		}
		err = srv.AcceptV2(msg, capTest)
		bufpool.Put(msg)
		done <- err
	}()
	if err := cli.StartClient(capTest); err != nil {
		t.Fatalf("StartClient: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("AcceptV2: %v", err)
	}
	if v := inst.NegotiatedV2.Value(); v != 2 {
		t.Fatalf("negotiations{outcome=v2} = %v, want one per side", v)
	}
	// Application traffic follows on the same connection.
	go func() { done <- cli.WriteMsg([]byte{'H', 1}) }()
	msg, err := srv.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg, []byte{'H', 1}) {
		t.Fatalf("post-negotiation msg %x", msg)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestStartClientRefusesBadHandshake is the no-downgrade contract: a peer
// that answers the probe with some other frame, with a version-1
// handshake, or with nothing at all fails StartClient with a typed error
// within the I/O timeout, counted as outcome="error" and never as "v2".
func TestStartClientRefusesBadHandshake(t *testing.T) {
	cases := []struct {
		name  string
		reply []byte // nil: read the probe, then stay silent
		typed bool   // expect a *HandshakeError (else a timeout)
	}{
		{"non-handshake frame", append([]byte{'E'}, "unknown message"...), true},
		{"version 1", appendNegotiate(nil, 1, 0), true},
		{"silence", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := NewInstruments(metrics.New())
			cliConn, srvConn := net.Pipe()
			defer cliConn.Close()
			defer srvConn.Close()
			cli := NewConn(cliConn, 200*time.Millisecond)
			cli.SetInstruments(inst)
			go func() {
				srv := NewConn(srvConn, 0)
				if probe, err := srv.ReadMsg(); err != nil || !IsNegotiate(probe) {
					t.Errorf("stub: probe %x, err %v", probe, err)
					return
				}
				if tc.reply != nil {
					_ = srv.WriteMsg(tc.reply)
				}
			}()
			start := time.Now()
			err := cli.StartClient(0)
			if err == nil {
				t.Fatal("StartClient succeeded against a peer that never shook hands")
			}
			if took := time.Since(start); took > 2*time.Second {
				t.Fatalf("StartClient took %v to fail", took)
			}
			var he *HandshakeError
			if errors.As(err, &he) != tc.typed {
				t.Fatalf("error %v (%T): *HandshakeError = %v, want %v", err, err, !tc.typed, tc.typed)
			}
			var ne net.Error
			if !tc.typed && !(errors.As(err, &ne) && ne.Timeout()) {
				t.Fatalf("silent peer: error %v is not a timeout", err)
			}
			if v := inst.NegotiateErr.Value(); v != 1 {
				t.Fatalf("negotiations{outcome=error} = %v, want 1", v)
			}
			if v := inst.NegotiatedV2.Value(); v != 0 {
				t.Fatalf("negotiations{outcome=v2} = %v, want 0", v)
			}
		})
	}
}

// TestAcceptV2RefusesVersion1: the server side refuses the same way and
// sends no reply.
func TestAcceptV2RefusesVersion1(t *testing.T) {
	inst := NewInstruments(metrics.New())
	var out bytes.Buffer
	srv := NewStream(&duplex{in: &bytes.Buffer{}, out: &out})
	srv.SetInstruments(inst)
	err := srv.AcceptV2(appendNegotiate(nil, 1, 0), 0)
	var he *HandshakeError
	if !errors.As(err, &he) {
		t.Fatalf("AcceptV2(version 1) = %v, want *HandshakeError", err)
	}
	if out.Len() != 0 {
		t.Fatalf("refused probe was answered with %x", out.Bytes())
	}
	if inst.NegotiateErr.Value() != 1 || inst.NegotiatedV2.Value() != 0 {
		t.Fatalf("outcomes error %v, v2 %v; want 1 and 0", inst.NegotiateErr.Value(), inst.NegotiatedV2.Value())
	}
}

// TestHandshakeGolden pins the handshake's bytes on the wire: probe and
// reply are the same 16 bytes (frame header, magic, version, capability
// bitmap), framed like every other message.
func TestHandshakeGolden(t *testing.T) {
	want := readHex(t, "testdata/handshake.hex")
	var probe, reply bytes.Buffer
	cli := NewStream(&duplex{in: bytes.NewBuffer(want), out: &probe})
	if err := cli.StartClient(0); err != nil {
		t.Fatalf("StartClient against the golden reply: %v", err)
	}
	if !bytes.Equal(probe.Bytes(), want) {
		t.Errorf("probe on the wire:\n got %x\nwant %x", probe.Bytes(), want)
	}
	srv := NewStream(&duplex{in: &probe, out: &reply})
	msg, err := srv.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AcceptV2(msg, 0); err != nil {
		t.Fatalf("AcceptV2 of the golden probe: %v", err)
	}
	if !bytes.Equal(reply.Bytes(), want) {
		t.Errorf("reply on the wire:\n got %x\nwant %x", reply.Bytes(), want)
	}
}

// readHex loads a golden fixture: hex bytes, with whitespace and
// #-comments ignored.
func readHex(t *testing.T, path string) []byte {
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

// TestConcurrentWritersNeverInterleave is the regression test for the
// header/body interleaving bug: many goroutines hammer one Conn while a
// reader checks that every frame arrives intact, its payload bytes
// consistent with exactly one writer.
func TestConcurrentWritersNeverInterleave(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	w := NewConn(cliConn, 0)
	r := NewConn(srvConn, 0)

	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			msg := make([]byte, 1+17+int(id)*13) // varied sizes
			msg[0] = 'S'
			for j := 1; j < len(msg); j++ {
				msg[j] = id
			}
			for n := 0; n < perWriter; n++ {
				if err := w.WriteMsg(msg); err != nil {
					t.Errorf("writer %d: %v", id, err)
					return
				}
			}
		}(byte(i))
	}
	go func() {
		wg.Wait()
		cliConn.Close()
	}()

	frames := 0
	for {
		msg, err := r.ReadMsg()
		if err != nil {
			break
		}
		if msg[0] != 'S' {
			t.Fatalf("frame %d: tag %q — interleaved write", frames, msg[0])
		}
		id := byte(0)
		if len(msg) > 1 {
			id = msg[1]
		}
		if want := 1 + 17 + int(id)*13; len(msg) != want {
			t.Fatalf("frame %d: writer %d frame is %d bytes, want %d — torn frame", frames, id, len(msg), want)
		}
		for j := 1; j < len(msg); j++ {
			if msg[j] != id {
				t.Fatalf("frame %d: byte %d is %d, want %d — interleaved payload", frames, j, msg[j], id)
			}
		}
		bufpool.Put(msg)
		frames++
	}
	if frames != writers*perWriter {
		t.Fatalf("read %d intact frames, want %d", frames, writers*perWriter)
	}
}

func TestReadMsgRejectsOversizeHeader(t *testing.T) {
	var hdr [6]byte
	binary.LittleEndian.PutUint32(hdr[:4], FrameLimit+1)
	r := NewStream(&duplex{in: bytes.NewBuffer(hdr[:]), out: &bytes.Buffer{}})
	if _, err := r.ReadMsg(); err == nil {
		t.Fatal("oversize header accepted")
	}
}

// failingDeadlineConn reports an error from deadline arming, as a
// half-closed TCP conn does; the Conn must surface it, not swallow it.
type failingDeadlineConn struct {
	net.Conn
	err error
}

func (c *failingDeadlineConn) SetReadDeadline(time.Time) error  { return c.err }
func (c *failingDeadlineConn) SetWriteDeadline(time.Time) error { return c.err }

func TestDeadlineArmingErrorsSurface(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	armErr := errors.New("use of closed network connection")
	c := NewConn(&failingDeadlineConn{Conn: a, err: armErr}, time.Second)
	if err := c.WriteMsg([]byte{'H'}); !errors.Is(err, armErr) {
		t.Fatalf("write: got %v, want arming error", err)
	}
	if _, err := c.ReadMsg(); !errors.Is(err, armErr) {
		t.Fatalf("read: got %v, want arming error", err)
	}
}

func TestInstrumentsCountFramesAndOutcomes(t *testing.T) {
	reg := metrics.New()
	inst := NewInstruments(reg)
	cliConn, srvConn := net.Pipe()
	cli := NewConn(cliConn, time.Second)
	srv := NewConn(srvConn, time.Second)
	cli.SetInstruments(inst)
	srv.SetInstruments(inst)
	done := make(chan error, 1)
	go func() {
		msg, err := srv.ReadMsg()
		if err != nil {
			done <- err
			return
		}
		done <- srv.AcceptV2(msg, 0)
	}()
	if err := cli.StartClient(0); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	go func() { done <- cli.WriteMsg([]byte{'H'}) }()
	msg, err := srv.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	bufpool.Put(msg)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v := inst.NegotiatedV2.Value(); v != 2 { // both ends count
		t.Fatalf("negotiated_v2 = %v, want 2", v)
	}
	// probe and reply, each written once and read once, then one message
	if v := inst.FramesV2.Value(); v != 6 {
		t.Fatalf("frames = %v, want 6", v)
	}
}
