package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"tunable/internal/bufpool"
)

// FuzzReadMsg feeds arbitrary bytes to the frame reader, mirroring the
// perfdb fuzz idiom: wire input may be truncated, oversize, or hostile,
// and ReadMsg must either yield a well-formed tag-prefixed message or
// return an error — never panic, and never hand back a frame above the
// size limit.
func FuzzReadMsg(f *testing.F) {
	// Seed with real frames, truncations, and an oversize length prefix.
	frame := func(msg []byte) []byte {
		var buf bytes.Buffer
		if err := NewStream(&duplex{in: &bytes.Buffer{}, out: &buf}).WriteMsg(msg); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	small := frame([]byte{'H', 1, 2, 3})
	large := frame(append([]byte{'S'}, bytes.Repeat([]byte{0xCD}, 200)...))
	f.Add(small)
	f.Add(large)
	f.Add(append(append([]byte{}, small...), large...))
	f.Add(large[:3])                                           // truncated header
	f.Add(small[:len(small)-2])                                // truncated payload
	f.Add(binary.LittleEndian.AppendUint32(nil, FrameLimit+1)) // oversize
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewStream(&duplex{in: bytes.NewBuffer(data), out: &bytes.Buffer{}})
		for {
			msg, err := c.ReadMsg()
			if err != nil {
				break
			}
			if len(msg) < 1 {
				t.Fatal("ReadMsg returned empty message without error")
			}
			if len(msg) > FrameLimit+1 {
				t.Fatalf("ReadMsg returned %d bytes, above the frame limit", len(msg))
			}
			bufpool.Put(msg)
		}
	})
}

// FuzzNegotiate feeds arbitrary bytes to the handshake parser. A message
// that parses must re-encode to exactly the input (the handshake is
// canonical) and announce a version this build accepts; everything else —
// wrong magic, truncated, unknown tag, version below 2 — must be rejected
// without panicking.
func FuzzNegotiate(f *testing.F) {
	valid := appendNegotiate(nil, V2, 1)
	f.Add(valid)
	f.Add(appendNegotiate(nil, 1, 0))         // retired version: refused
	f.Add(appendNegotiate(nil, 99, ^Caps(0))) // future version: still a probe
	for i := 0; i < len(valid); i++ {
		f.Add(valid[:i]) // truncations
	}
	bad := append([]byte{}, valid...)
	bad[1] ^= 0xFF // corrupt magic
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		ver, caps, err := parseNegotiate(data)
		if err != nil {
			return
		}
		if !IsNegotiate(data) {
			t.Fatal("parseNegotiate accepted a message IsNegotiate rejects")
		}
		if ver < V2 {
			t.Fatalf("parseNegotiate accepted version %d", ver)
		}
		if got := appendNegotiate(nil, ver, caps); !bytes.Equal(got, data) {
			t.Fatalf("probe not canonical: parsed (v%d caps %#x) re-encodes to %x, input %x",
				ver, caps, got, data)
		}
	})
}

// fuzzSchema exercises every wire kind, a required field, a repeated
// field, and a nested message — the full surface a hostile body can hit.
var fuzzSchema = NewSchema("fuzz",
	Field{Name: "id", Tag: 1, Kind: String, Required: true},
	Field{Name: "count", Tag: 2, Kind: Uint},
	Field{Name: "delta", Tag: 3, Kind: Sint},
	Field{Name: "on", Tag: 4, Kind: Bool},
	Field{Name: "load", Tag: 5, Kind: F64},
	Field{Name: "blob", Tag: 6, Kind: Bytes},
	Field{Name: "kv", Tag: 7, Kind: Msg},
)

// FuzzSchemaDecode feeds arbitrary bytes to the schema decoder: unknown
// field tags must be skipped (forward compatibility), wrong wire types
// and truncated varints must error, and nothing may panic. Every field
// the decoder yields is read back through its kind's accessor.
func FuzzSchemaDecode(f *testing.F) {
	var enc Encoder
	enc.Init(fuzzSchema, nil)
	enc.Str("id", "node-7")
	enc.Uint("count", 42)
	enc.Sint("delta", -3)
	enc.Bool("on", true)
	enc.F64("load", 0.75)
	enc.Bytes("blob", []byte{1, 2, 3})
	if err := enc.Msg("kv", fuzzSchema, func(e *Encoder) {
		e.Str("id", "inner")
	}); err != nil {
		f.Fatal(err)
	}
	enc.Uint("count", 43) // repeated: same tag twice
	valid, err := enc.Finish()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte{}, valid...))
	f.Add(valid[:len(valid)/2]) // truncated
	f.Add([]byte{})
	// Unknown tags ahead of a valid body: decoders must skip them.
	unknown := appendUvarint(nil, 50<<3|wtVarint)
	unknown = appendUvarint(unknown, 12345)
	unknown = appendUvarint(unknown, 51<<3|wtLen)
	unknown = appendUvarint(unknown, 4)
	unknown = append(unknown, "junk"...)
	f.Add(append(unknown, valid...))
	f.Add(appendUvarint(nil, 9<<3|7)) // reserved wire type

	f.Fuzz(func(t *testing.T, data []byte) {
		var d Decoder
		d.Init(fuzzSchema, data)
		for d.Next() {
			switch f := d.Field(); f.Kind {
			case Uint:
				d.Uint()
			case Sint:
				d.Sint()
			case Bool:
				d.Bool()
			case F64:
				d.F64()
			case String:
				d.Str()
			case Bytes:
				d.Bytes()
			case Msg:
				var sub Decoder
				sub.Init(fuzzSchema, d.MsgBytes())
				for sub.Next() {
				}
				sub.Err()
			}
		}
		d.Err()
	})
}
