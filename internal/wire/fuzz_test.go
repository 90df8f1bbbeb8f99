package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
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

// fuzzMsg uses every field method — a required field, each scalar, both
// repeated scalars, a nested message and a repeated nested message
// — the full surface a hostile body can hit.
type fuzzMsg struct {
	ID    string
	Count uint64
	N     int
	Delta int64
	On    bool
	Load  float64
	Tags  []string
	Seeds []int64
	Sub   *fuzzMsg
	Subs  []fuzzMsg
}

func (m *fuzzMsg) codec(c *Codec) {
	c.Str(1, &m.ID, Required)
	c.Uint(2, &m.Count)
	c.Int(3, &m.N)
	c.Sint(4, &m.Delta)
	c.Bool(5, &m.On)
	c.F64(6, &m.Load)
	c.Strs(7, &m.Tags)
	c.Sints(8, &m.Seeds)
	if sub, ok := c.Msg(10, m.Sub != nil); ok {
		if m.Sub == nil {
			m.Sub = new(fuzzMsg)
		}
		for sub.Next() {
			m.Sub.codec(&sub)
		}
		c.End(&sub)
	}
	subs := Elems(c, 11, &m.Subs)
	for i := range subs {
		if sub, ok := c.Msg(11, true); ok {
			for sub.Next() {
				subs[i].codec(&sub)
			}
			c.End(&sub)
		}
	}
}

func (m *fuzzMsg) render() []byte {
	c := NewEncoder(nil)
	m.codec(c)
	return c.Bytes()
}

func (m *fuzzMsg) parse(body []byte) error {
	c := NewDecoder(body)
	for c.Next() {
		m.codec(c)
	}
	return c.Err()
}

// FuzzSchemaDecode feeds arbitrary bytes to the codec: unknown field tags
// must be skipped (forward compatibility), wrong wire types and truncated
// varints must error, and nothing may panic. A body that decodes must
// re-encode to at most its own length and decode again to an equal
// message — the decoder holds no more than the input carried.
func FuzzSchemaDecode(f *testing.F) {
	full := fuzzMsg{ID: "node-7", Count: 42, N: -1, Delta: -3, On: true, Load: 0.75,
		Tags: []string{"a", ""}, Seeds: []int64{0, -9},
		Sub: &fuzzMsg{ID: "inner"}, Subs: []fuzzMsg{{ID: "x", Count: 1}, {ID: "y"}}}
	valid := full.render()
	f.Add(valid)
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
		var m fuzzMsg
		if m.parse(data) != nil {
			return
		}
		again := m.render()
		var m2 fuzzMsg
		if err := m2.parse(again); err != nil {
			t.Fatalf("re-encoding %x of %x does not decode: %v", again, data, err)
		}
		if !equalNaN(reflect.ValueOf(m), reflect.ValueOf(m2)) {
			t.Fatalf("round trip changed the message:\n%+v\n%+v", m, m2)
		}
		if len(again) > len(data) {
			t.Fatalf("%d-byte input re-encodes to %d bytes", len(data), len(again))
		}
	})
}

// equalNaN is reflect.DeepEqual, except that NaN equals NaN: the codec
// carries a float's bits, and DeepEqual's == would refuse a NaN it kept.
func equalNaN(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || x != x && y != y
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalNaN(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equalNaN(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalNaN(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}
