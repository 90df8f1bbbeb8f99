package avis

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/metrics"
	"tunable/internal/wire"
)

// TestDataPlaneGolden pins one data-plane round's bytes on the wire — a
// foveal request and its reply, split into two segment frames written as
// one batch — and checks that the fixtures decode back to the round that
// produced them.
func TestDataPlaneGolden(t *testing.T) {
	req := Request{Image: 1, Seq: 7, X: 128, Y: 96, R: 32, PrevR: 16, Level: 3}
	enc := []byte{0xde, 0xad, 0xbe, 0xef, 0x42} // the round's compressed payload
	const rawLen, segBytes = 10, 3

	goldenReq := readHex(t, "testdata/request.hex")
	goldenReply := readHex(t, "testdata/reply_two_segments.hex")
	var out bytes.Buffer
	wc := wire.NewStream(rw{nil, &out})
	if err := wc.WriteMsg(EncodeRequest(req)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), goldenReq) {
		t.Errorf("request: wire bytes moved\n got %x\nwant %x", out.Bytes(), goldenReq)
	}
	out.Reset()
	if err := WriteSegmentsWire(wc, req.Image, req.Seq, rawLen, enc, segBytes, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), goldenReply) {
		t.Errorf("reply: wire bytes moved\n got %x\nwant %x", out.Bytes(), goldenReply)
	}

	msg, err := wire.NewStream(rw{bytes.NewReader(goldenReq), nil}).ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeRequest(msg); err != nil || got != req {
		t.Errorf("request fixture decodes to %+v (err %v), want %+v", got, err, req)
	}
	rc := wire.NewStream(rw{bytes.NewReader(goldenReply), nil})
	var payload []byte
	raw := 0
	for i, wantLast := range []bool{false, true} {
		msg, err := rc.ReadMsg()
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		seg, err := DecodeSegment(msg)
		if err != nil || seg.Image != req.Image || seg.Seq != req.Seq || seg.Last != wantLast {
			t.Fatalf("segment %d decodes to %+v (err %v)", i, seg, err)
		}
		payload = append(payload, seg.Payload...)
		raw += seg.Raw
		bufpool.Put(msg)
	}
	if !bytes.Equal(payload, enc) || raw != rawLen {
		t.Errorf("reassembled %x accounting for %d raw bytes, want %x and %d", payload, raw, enc, rawLen)
	}
}

// TestConnectHandshakeRefused: a client facing a server that does not
// complete the wire handshake — it answers the probe the way a pre-v2
// build answered unknown messages, with a version-1 handshake, or with
// nothing — fails Connect with a typed error within the I/O timeout,
// counts it as outcome="error", and never sends its hello (no downgrade).
func TestConnectHandshakeRefused(t *testing.T) {
	cases := []struct {
		name    string
		reply   []byte // nil: stay silent
		timeout bool   // expect ErrIOTimeout (else *wire.HandshakeError)
	}{
		{"unknown-message error", encodeError("unknown message"), false},
		{"version 1", []byte{wire.TagNegotiate, 0x41, 0x56, 0x57, 0x32, 1, 0, 0, 0, 0}, false},
		{"silence", nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cliConn, srvConn := net.Pipe()
			defer srvConn.Close()
			extra := make(chan int, 1)
			go func() {
				srv := wire.NewConn(srvConn, 5*time.Second)
				if probe, err := srv.ReadMsg(); err != nil || !wire.IsNegotiate(probe) {
					t.Errorf("stub: first frame %x, err %v: not a handshake probe", probe, err)
				}
				if tc.reply != nil {
					_ = srv.WriteMsg(tc.reply)
				}
				n := 0
				for {
					if _, err := srv.ReadMsg(); err != nil {
						break
					}
					n++
				}
				extra <- n
			}()

			c, err := NewRealClient(cliConn, Params{DR: 64, Codec: "lzw", Level: 4})
			if err != nil {
				t.Fatal(err)
			}
			c.SetIOTimeout(200 * time.Millisecond)
			reg := metrics.New()
			c.EnableMetrics(reg)
			start := time.Now()
			err = c.Connect()
			if took := time.Since(start); took > 2*time.Second {
				t.Fatalf("Connect took %v to fail", took)
			}
			var refused *wire.HandshakeError
			if tc.timeout {
				if !errors.Is(err, ErrIOTimeout) {
					t.Fatalf("error %v, want ErrIOTimeout", err)
				}
			} else if !errors.As(err, &refused) {
				t.Fatalf("error %v (%T), want *wire.HandshakeError", err, err)
			}
			errs := reg.Counter("wire_negotiations_total", "", metrics.L("outcome", "error"))
			if got := errs.Value(); got != 1 {
				t.Fatalf("wire_negotiations_total{outcome=error} = %v, want 1", got)
			}
			cliConn.Close() // not c.Close(): that would send a close frame
			if n := <-extra; n != 0 {
				t.Fatalf("client sent %d frame(s) after the failed handshake", n)
			}
		})
	}
}

// rw glues a reader and a writer into the stream wire.NewStream wants.
type rw struct {
	io.Reader
	io.Writer
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
