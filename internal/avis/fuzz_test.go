package avis

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"tunable/internal/bufpool"
	"tunable/internal/compress"
	"tunable/internal/imagery"
	"tunable/internal/wavelet"
	"tunable/internal/wire"
)

// The origin leg the fuzz target drives: a small image set and one round
// of a fovea inside it.
var (
	fuzzGeom = Geometry{Side: 64, Levels: 3, NumImages: 1}
	fuzzReq  = Request{Image: 0, X: 32, Y: 32, R: 12, Level: 2}
)

// FuzzFetchRoundRaw feeds arbitrary reply bytes to the client side of an
// origin leg (RealClient.FetchRoundRaw, what the edge proxy calls): a fake
// origin completes the handshake honestly, then answers the round's request
// with the fuzzed bytes as they come and hangs up. Whatever arrives, the
// round must not panic, must return either a payload or an error, and must
// not return a payload larger than the request's fovea and level allow.
// The first argument picks the codec the session announced.
func FuzzFetchRoundRaw(f *testing.F) {
	codecs := compress.Names()
	pyr, err := wavelet.Decompose(imagery.Generate(fuzzGeom.Side, 11), fuzzGeom.Levels)
	if err != nil {
		f.Fatal(err)
	}
	ch, err := pyr.ExtractRegion(fuzzReq.Level, fuzzReq.X, fuzzReq.Y, fuzzReq.R, 0)
	if err != nil {
		f.Fatal(err)
	}
	chunk := ch.Encode()
	ch.Release()
	for i, name := range codecs {
		codec, err := compress.Lookup(name)
		if err != nil {
			f.Fatal(err)
		}
		enc := codec.Encode(chunk)
		var out bytes.Buffer
		wc := wire.NewStream(rw{nil, &out})
		// The genuine reply (its first request is sequence 1), split into
		// segments.
		if err := WriteSegmentsWire(wc, fuzzReq.Image, 1, len(chunk), enc, 256, nil); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), out.Bytes())
		f.Add(uint8(i), out.Bytes()[:out.Len()/2])
	}
	var out bytes.Buffer
	wc := wire.NewStream(rw{nil, &out})
	if err := wc.WriteMsg(encodeError("image out of range")); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), out.Bytes())
	f.Add(uint8(0), []byte{})

	f.Fuzz(func(t *testing.T, codec uint8, reply []byte) {
		cliConn, srvConn := net.Pipe()
		origin := make(chan error, 1)
		go func() { origin <- fakeOrigin(srvConn, reply) }()
		c, err := NewRealClient(cliConn, Params{DR: 8, Codec: codecs[int(codec)%len(codecs)], Level: fuzzReq.Level})
		if err != nil {
			t.Fatal(err)
		}
		c.SetIOTimeout(5 * time.Second)
		if err := c.Connect(); err != nil {
			t.Fatal(err)
		}
		data, _, err := c.FetchRoundRaw(fuzzReq)
		cliConn.Close()
		if oerr := <-origin; oerr != nil {
			t.Fatalf("fake origin: %v", oerr)
		}
		if (err == nil) == (data == nil) {
			t.Fatalf("round returned payload of %d bytes (nil: %v) and error %v", len(data), data == nil, err)
		}
		if bound := wavelet.ChunkBound(fuzzGeom.Side, fuzzGeom.Levels, fuzzReq.Level, fuzzReq.R); len(data) > bound {
			t.Fatalf("%d-byte payload, the request allows %d", len(data), bound)
		}
		bufpool.Put(data)
	})
}

// fakeOrigin answers the wire handshake, the hello and the codec notice,
// reads one request, and writes reply to conn unframed before hanging up.
// The client may stop reading partway and close its end, so a failed
// write of the reply is not an error.
func fakeOrigin(conn net.Conn, reply []byte) error {
	defer conn.Close()
	wc := wire.NewConn(conn, 5*time.Second)
	probe, err := wc.ReadMsg()
	if err != nil {
		return err
	}
	if err := wc.AcceptV2(probe, 0); err != nil {
		return err
	}
	for _, want := range []byte{tagHello, tagNotify, tagRequest} {
		msg, err := wc.ReadMsg()
		if err != nil {
			return err
		}
		if msg[0] != want {
			return fmt.Errorf("message %q, want %q", msg[0], want)
		}
		if want == tagHello {
			if err := wc.WriteMsg(encodeGeom(fuzzGeom)); err != nil {
				return err
			}
		}
	}
	_, _ = conn.Write(reply)
	return nil
}
