package avis

import (
	"encoding/binary"
	"fmt"

	"tunable/internal/bufpool"
	"tunable/internal/wire"
)

// Wire protocol. Each link message carries exactly one protocol message;
// the first byte is the type tag.
const (
	tagHello   = 'H' // client → server: request geometry
	tagGeom    = 'G' // server → client: side, levels, image count
	tagNotify  = 'N' // client → server: compression type (Figure 2's notify)
	tagRequest = 'R' // client → server: foveal increment request
	tagSegment = 'S' // server → client: one reply segment
	tagClose   = 'C' // client → server: end of session
	tagError   = 'E' // server → client: request failed
)

// Geometry describes the served image set.
type Geometry struct {
	Side      int
	Levels    int
	NumImages int
}

// Request asks for the coefficients refining the square of radius R
// centred at (X, Y) at resolution Level, excluding the already-sent
// radius PrevR (Figure 2's send_request(x, y, r, l)). Seq identifies the
// round attempt: replies carry it back so a client that timed out and
// retransmitted can discard stale segments from the aborted attempt.
type Request struct {
	Image          int
	Seq            int
	X, Y, R, PrevR int
	Level          int
}

// Segment is one pipelined slice of a reply. Raw is the number of
// pre-compression bytes this slice accounts for (the client charges its
// decode and display cost from it); Last marks the end of the round; Seq
// echoes the request's attempt number.
type Segment struct {
	Image   int
	Seq     int
	Raw     int
	Last    bool
	Payload []byte
}

func encodeHello() []byte { return []byte{tagHello} }

func encodeGeom(g Geometry) []byte {
	out := make([]byte, 13)
	out[0] = tagGeom
	binary.LittleEndian.PutUint32(out[1:], uint32(g.Side))
	binary.LittleEndian.PutUint32(out[5:], uint32(g.Levels))
	binary.LittleEndian.PutUint32(out[9:], uint32(g.NumImages))
	return out
}

func decodeGeom(b []byte) (Geometry, error) {
	if len(b) != 13 || b[0] != tagGeom {
		return Geometry{}, fmt.Errorf("avis: malformed geometry message")
	}
	return Geometry{
		Side:      int(binary.LittleEndian.Uint32(b[1:])),
		Levels:    int(binary.LittleEndian.Uint32(b[5:])),
		NumImages: int(binary.LittleEndian.Uint32(b[9:])),
	}, nil
}

func encodeNotify(codec string) []byte {
	out := make([]byte, 2+len(codec))
	out[0] = tagNotify
	out[1] = byte(len(codec))
	copy(out[2:], codec)
	return out
}

func decodeNotify(b []byte) (string, error) {
	if len(b) < 2 || b[0] != tagNotify || len(b) != 2+int(b[1]) {
		return "", fmt.Errorf("avis: malformed notify message")
	}
	return string(b[2:]), nil
}

// EncodeRequest renders a foveal increment request.
func EncodeRequest(r Request) []byte {
	out := make([]byte, 26)
	out[0] = tagRequest
	binary.LittleEndian.PutUint32(out[1:], uint32(r.Image))
	binary.LittleEndian.PutUint32(out[5:], uint32(r.X))
	binary.LittleEndian.PutUint32(out[9:], uint32(r.Y))
	binary.LittleEndian.PutUint32(out[13:], uint32(r.R))
	binary.LittleEndian.PutUint32(out[17:], uint32(r.PrevR))
	binary.LittleEndian.PutUint32(out[21:], uint32(r.Seq))
	out[25] = byte(r.Level)
	return out
}

// DecodeRequest parses a foveal increment request.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) != 26 || b[0] != tagRequest {
		return Request{}, fmt.Errorf("avis: malformed request message")
	}
	return Request{
		Image: int(binary.LittleEndian.Uint32(b[1:])),
		X:     int(binary.LittleEndian.Uint32(b[5:])),
		Y:     int(binary.LittleEndian.Uint32(b[9:])),
		R:     int(binary.LittleEndian.Uint32(b[13:])),
		PrevR: int(binary.LittleEndian.Uint32(b[17:])),
		Seq:   int(binary.LittleEndian.Uint32(b[21:])),
		Level: int(b[25]),
	}, nil
}

// segmentHeadLen is the fixed size of a segment message before its
// payload: tag(1) + image(4) + raw(4) + seq(4) + last(1).
const segmentHeadLen = 14

// appendSegmentHead renders a segment message's header (everything but
// the payload) into dst, for framing a segment around its payload without
// gluing them together.
func appendSegmentHead(dst []byte, s Segment) []byte {
	var out [segmentHeadLen]byte
	out[0] = tagSegment
	binary.LittleEndian.PutUint32(out[1:], uint32(s.Image))
	binary.LittleEndian.PutUint32(out[5:], uint32(s.Raw))
	binary.LittleEndian.PutUint32(out[9:], uint32(s.Seq))
	if s.Last {
		out[13] = 1
	}
	return append(dst, out[:]...)
}

// DecodeSegment parses one reply segment; Payload aliases b.
func DecodeSegment(b []byte) (Segment, error) {
	if len(b) < 14 || b[0] != tagSegment {
		return Segment{}, fmt.Errorf("avis: malformed segment message")
	}
	return Segment{
		Image:   int(binary.LittleEndian.Uint32(b[1:])),
		Raw:     int(binary.LittleEndian.Uint32(b[5:])),
		Seq:     int(binary.LittleEndian.Uint32(b[9:])),
		Last:    b[13] == 1,
		Payload: b[14:],
	}, nil
}

func encodeError(msg string) []byte {
	return append([]byte{tagError}, msg...)
}

func encodeClose() []byte { return []byte{tagClose} }

// WriteSegmentsWire slices one encoded reply into pipelined segment
// frames — the server side of a round. rawLen is the reply's
// pre-compression size; each segment is charged a proportional share of
// it so the client's decode/display cost model stays exact under any
// segmentation. An empty reply still produces one (empty, Last) segment
// so the round always terminates. onSeg, when non-nil, observes each
// segment's payload size (the telemetry hook). segBytes ≤ 0 takes
// DefaultSegmentBytes. Every segment header is rendered into one pooled
// arena and gathered with its payload slice by scatter-gather framing, so
// the whole reply — all segments, headers and payloads — goes out in a
// single vectored write with zero payload copies.
func WriteSegmentsWire(c *wire.Conn, image, seq, rawLen int, enc []byte, segBytes int, onSeg func(wireBytes int)) error {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	total := len(enc)
	nseg := (total + segBytes - 1) / segBytes
	if nseg == 0 {
		nseg = 1
	}
	// One arena for every header; capacity is reserved up front so the
	// slices handed to AppendFrame2 stay valid until the flush.
	heads := bufpool.Get(nseg * segmentHeadLen)[:0]
	defer bufpool.Put(heads)
	for off := 0; off < total || off == 0; off += segBytes {
		end := off + segBytes
		if end > total {
			end = total
		}
		rawShare := rawLen
		if total > 0 {
			rawShare = rawLen * (end - off) / total
		}
		hstart := len(heads)
		heads = appendSegmentHead(heads, Segment{Image: image, Seq: seq, Raw: rawShare, Last: end == total})
		if err := c.AppendFrame2(heads[hstart:], enc[off:end]); err != nil {
			return err
		}
		if onSeg != nil {
			onSeg(end - off)
		}
		if end == total {
			break
		}
	}
	return c.Flush()
}
