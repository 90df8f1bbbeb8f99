package avis

import (
	"bytes"
	"testing"
	"testing/quick"

	"tunable/internal/vtime"
)

func TestGeomRoundTrip(t *testing.T) {
	g := Geometry{Side: 1024, Levels: 4, NumImages: 10}
	got, err := decodeGeom(encodeGeom(g))
	if err != nil {
		t.Fatal(err)
	}
	if got != g {
		t.Fatalf("round trip %+v", got)
	}
	if _, err := decodeGeom([]byte{tagGeom, 1}); err == nil {
		t.Fatal("short geometry accepted")
	}
	if _, err := decodeGeom(encodeHello()); err == nil {
		t.Fatal("wrong tag accepted")
	}
}

func TestNotifyRoundTrip(t *testing.T) {
	for _, name := range []string{"lzw", "bzw", "raw", ""} {
		got, err := decodeNotify(encodeNotify(name))
		if err != nil {
			t.Fatal(err)
		}
		if got != name {
			t.Fatalf("round trip %q", got)
		}
	}
	if _, err := decodeNotify([]byte{tagNotify, 5, 'a'}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(img, x, y, r, prev uint16, level uint8) bool {
		req := Request{
			Image: int(img), X: int(x), Y: int(y),
			R: int(r), PrevR: int(prev), Level: int(level % 8),
		}
		got, err := DecodeRequest(EncodeRequest(req))
		return err == nil && got == req
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequest([]byte{tagRequest, 0}); err == nil {
		t.Fatal("short request accepted")
	}
}

func TestSegmentRoundTripProperty(t *testing.T) {
	f := func(img uint16, raw uint16, last bool, payload []byte) bool {
		seg := Segment{Image: int(img), Raw: int(raw), Last: last, Payload: payload}
		got, err := DecodeSegment(encodeSegment(seg))
		if err != nil {
			return false
		}
		if got.Image != seg.Image || got.Raw != seg.Raw || got.Last != seg.Last {
			return false
		}
		return bytes.Equal(got.Payload, seg.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSegment([]byte{tagSegment}); err == nil {
		t.Fatal("short segment accepted")
	}
}

// Decoders must reject (never panic on) arbitrary input bytes.
func TestDecodersRejectFuzz(t *testing.T) {
	f := func(data []byte) bool {
		// None of these may panic; errors are expected.
		decodeGeom(data)
		decodeNotify(data)
		DecodeRequest(data)
		DecodeSegment(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// The simulated server must answer garbage messages with errors, not die.
func TestServerSurvivesGarbage(t *testing.T) {
	w := testWorld(t, WorldConfig{Params: Params{DR: 64, Codec: "lzw", Level: 4}})
	w.Sim.Spawn("fuzzer", func(p *vtime.Proc) {
		for _, msg := range [][]byte{
			{0xFF, 1, 2, 3},
			{tagRequest},
			{tagNotify, 200},
			{tagGeom},
		} {
			w.Link.A().Send(p, msg)
			reply, ok := w.Link.A().Recv(p)
			if !ok || len(reply.Payload) == 0 || reply.Payload[0] != tagError {
				t.Errorf("message %v: reply %v %v", msg, reply, ok)
			}
		}
		w.Link.A().Send(p, encodeClose())
	})
	if err := w.Sim.Run(); err != nil {
		t.Fatal(err)
	}
}
