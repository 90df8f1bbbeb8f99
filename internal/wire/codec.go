package wire

import (
	"fmt"
	"math"
	"math/bits"
)

// Control messages are described once, in code: each message type has one
// codec method that lists its fields — one Codec call per field tag — and
// that same method both renders the message and parses it:
//
//	func (r *Req) codec(c *wire.Codec) {
//		c.Str(1, &r.ID, wire.Required)
//		c.Strs(2, &r.Exclude)
//		c.F64(3, &r.CPU)
//	}
//
//	c := wire.NewEncoder(buf) // render
//	r.codec(c)
//	buf = c.Bytes()
//
//	c := wire.NewDecoder(body) // parse
//	for c.Next() {
//		r.codec(c)
//	}
//	err := c.Err()
//
// One write rule holds for every field: it is written when Required or
// non-zero, and a repeated field is its tag written once per element.
// When decoding, the method runs once per field on the wire and each
// field method acts only on its own tag; the first pass stops on no field
// and registers the required tags, so a message without one is refused
// even when its body is empty. A tag the method does not list is skipped
// by wire type alone, so an older build reads a newer peer's messages —
// the forward compatibility rolling upgrades rely on. Tags are append-only.
//
// Wire format (protobuf-shaped TLV): each field is a uvarint key
// (tag<<3 | wiretype) followed by the value. Wire types:
//
//	0 varint    — Uint, Int, Sint (zigzag), Bool
//	1 fixed64   — F64 (little-endian IEEE 754)
//	2 len-delim — Str, Msg (uvarint length + bytes)
//
// Unknown wire types are errors.

// wire types
const (
	wtVarint  = 0
	wtFixed64 = 1
	wtLen     = 2
)

// Required, passed as a field method's last argument, marks a field every
// message carries: the encoder writes it even when zero, and the decoder
// refuses a message without it. Required tags are below 64.
const Required = true

// Codec renders or parses one message through the message's codec method.
// Decoded strings are copies, so the message outlives the input buffer.
type Codec struct {
	buf   []byte // encoding: the output so far; decoding: the message
	dec   bool
	begun bool // Next has run its first pass
	start int  // encoding a nested message: where its body starts

	// Decoding: the read offset, the field Next stopped on (tag 0 on the
	// first pass) and its payload.
	off       int
	tag       uint32
	wt        uint8
	val       uint64 // varint or fixed64 payload
	raw       []byte // len-delimited payload, aliasing buf
	req, seen uint64 // required and arrived tags, as bit sets
	err       error
}

// NewEncoder returns a codec that renders a message, appending to buf.
func NewEncoder(buf []byte) *Codec { return &Codec{buf: buf} }

// NewDecoder returns a codec that parses msg.
func NewDecoder(msg []byte) *Codec { return &Codec{buf: msg, dec: true} }

// Bytes returns the rendered message.
func (c *Codec) Bytes() []byte { return c.buf }

// Next steps the codec: an encoder runs one pass; a decoder runs its
// registration pass and then stops on each field of the message in turn.
// It returns false when done or on a malformed field.
func (c *Codec) Next() bool {
	if !c.begun {
		c.begun = true
		return true
	}
	if !c.dec || c.err != nil || c.off >= len(c.buf) {
		return false
	}
	key, ok := uint64(c.buf[c.off]), true // a one-byte key, the common case, read inline
	if key < 0x80 {
		c.off++
	} else if key, ok = c.uvarint(); !ok {
		return false
	}
	tag, wt := uint32(key>>3), uint8(key&7)
	if tag == 0 {
		return c.fail("field tag 0")
	}
	switch wt {
	case wtVarint:
		if c.val, ok = c.uvarint(); !ok {
			return false
		}
	case wtFixed64:
		if c.off+8 > len(c.buf) {
			return c.fail("truncated fixed64")
		}
		b := c.buf[c.off:]
		c.val = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		c.off += 8
	case wtLen:
		n, ok := c.uvarint()
		if !ok {
			return false
		}
		if n > uint64(len(c.buf)-c.off) {
			return c.fail("length-delimited field of %d bytes overruns message", n)
		}
		c.raw = c.buf[c.off : c.off+int(n)]
		c.off += int(n)
	default:
		return c.fail("unknown wire type %d (tag %d)", wt, tag)
	}
	c.tag, c.wt = tag, wt
	if tag < 64 {
		c.seen |= 1 << tag
	}
	return true
}

// Err reports the first malformed field, or else a required field the
// message lacks. Call it after Next returns false.
func (c *Codec) Err() error {
	if missing := c.req &^ c.seen; c.err == nil && missing != 0 {
		return fmt.Errorf("wire: required field %d absent", bits.TrailingZeros64(missing))
	}
	return c.err
}

func (c *Codec) fail(format string, args ...any) bool {
	if c.err == nil {
		c.err = fmt.Errorf("wire: at offset %d: %s", c.off, fmt.Sprintf(format, args...))
	}
	return false
}

func (c *Codec) uvarint() (uint64, bool) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if c.off >= len(c.buf) {
			return 0, c.fail("truncated varint")
		}
		b := c.buf[c.off]
		c.off++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, true
		}
	}
	return 0, c.fail("varint overflows 64 bits")
}

// at reports whether a field method acts on tag. Encoding, that is whether
// the field is written (Required or non-zero), and the key is appended;
// decoding, whether the current field has the tag, which must then arrive
// as wire type wt.
func (c *Codec) at(tag uint32, wt uint8, zero bool, required []bool) bool {
	must := len(required) > 0 && required[0]
	if !c.dec {
		if zero && !must {
			return false
		}
		c.key(tag, wt)
		return true
	}
	if c.tag != tag {
		if c.tag == 0 && must {
			c.req |= 1 << tag
		}
		return false
	}
	if c.wt != wt {
		return c.fail("field %d arrived as wire type %d, want %d", tag, c.wt, wt)
	}
	return true
}

// other reports that a decoder stopped on another field than tag (an
// encoder's tag stays 0). The scalar and string field methods check it
// first, inline in the codec method, so the fields a pass does not touch
// cost no call.
func (c *Codec) other(tag uint32) bool { return c.tag != tag && c.tag != 0 }

func (c *Codec) key(tag uint32, wt uint8) {
	c.buf = appendUvarint(c.buf, uint64(tag)<<3|uint64(wt))
}

func (c *Codec) putStr(s string) {
	c.buf = appendUvarint(c.buf, uint64(len(s)))
	c.buf = append(c.buf, s...)
}

// Uint codes an unsigned integer.
func (c *Codec) Uint(tag uint32, p *uint64, required ...bool) {
	if !c.other(tag) {
		c.uint(tag, p, required)
	}
}

func (c *Codec) uint(tag uint32, p *uint64, required []bool) {
	switch {
	case !c.at(tag, wtVarint, *p == 0, required):
	case c.dec:
		*p = c.val
	default:
		c.buf = appendUvarint(c.buf, *p)
	}
}

// Int codes an int as an unsigned integer.
func (c *Codec) Int(tag uint32, p *int, required ...bool) {
	if !c.other(tag) {
		c.int(tag, p, required)
	}
}

func (c *Codec) int(tag uint32, p *int, required []bool) {
	switch {
	case !c.at(tag, wtVarint, *p == 0, required):
	case c.dec:
		*p = int(c.val)
	default:
		c.buf = appendUvarint(c.buf, uint64(*p))
	}
}

// Sint codes a signed integer, zigzag-encoded.
func (c *Codec) Sint(tag uint32, p *int64, required ...bool) {
	if !c.other(tag) {
		c.sint(tag, p, required)
	}
}

func (c *Codec) sint(tag uint32, p *int64, required []bool) {
	switch {
	case !c.at(tag, wtVarint, *p == 0, required):
	case c.dec:
		*p = unzigzag(c.val)
	default:
		c.buf = appendUvarint(c.buf, zigzag(*p))
	}
}

// Bool codes a boolean as 0 or 1.
func (c *Codec) Bool(tag uint32, p *bool, required ...bool) {
	if !c.other(tag) {
		c.bool(tag, p, required)
	}
}

func (c *Codec) bool(tag uint32, p *bool, required []bool) {
	switch {
	case !c.at(tag, wtVarint, !*p, required):
	case c.dec:
		*p = c.val != 0
	case *p:
		c.buf = append(c.buf, 1)
	default:
		c.buf = append(c.buf, 0)
	}
}

// F64 codes a float64.
func (c *Codec) F64(tag uint32, p *float64, required ...bool) {
	if !c.other(tag) {
		c.f64(tag, p, required)
	}
}

func (c *Codec) f64(tag uint32, p *float64, required []bool) {
	switch {
	case !c.at(tag, wtFixed64, *p == 0, required):
	case c.dec:
		*p = math.Float64frombits(c.val)
	default:
		b := math.Float64bits(*p)
		c.buf = append(c.buf, byte(b), byte(b>>8), byte(b>>16), byte(b>>24),
			byte(b>>32), byte(b>>40), byte(b>>48), byte(b>>56))
	}
}

// Str codes a string.
func (c *Codec) Str(tag uint32, p *string, required ...bool) {
	if !c.other(tag) {
		c.str(tag, p, required)
	}
}

func (c *Codec) str(tag uint32, p *string, required []bool) {
	switch {
	case !c.at(tag, wtLen, *p == "", required):
	case c.dec:
		*p = string(c.raw)
	default:
		c.putStr(*p)
	}
}

// Strs codes a repeated string.
func (c *Codec) Strs(tag uint32, p *[]string) {
	if !c.other(tag) {
		c.strs(tag, p)
	}
}

func (c *Codec) strs(tag uint32, p *[]string) {
	if c.dec {
		if c.at(tag, wtLen, false, nil) {
			*p = append(*p, string(c.raw))
		}
		return
	}
	for _, s := range *p {
		c.key(tag, wtLen)
		c.putStr(s)
	}
}

// Sints codes a repeated signed integer.
func (c *Codec) Sints(tag uint32, p *[]int64) {
	if c.dec {
		if c.at(tag, wtVarint, false, nil) {
			*p = append(*p, unzigzag(c.val))
		}
		return
	}
	for _, v := range *p {
		c.key(tag, wtVarint)
		c.buf = appendUvarint(c.buf, zigzag(v))
	}
}

// Msg opens nested message field tag, written when present: it returns a
// codec for the body when encoding a present message or when decoding
// that field. The caller codes the body through it, then closes it with
// End:
//
//	if sub, ok := c.Msg(4, m.Grant != (Grant{})); ok {
//		for sub.Next() {
//			m.Grant.codec(&sub)
//		}
//		c.End(&sub)
//	}
func (c *Codec) Msg(tag uint32, present bool) (sub Codec, ok bool) {
	if !c.at(tag, wtLen, !present, nil) {
		return Codec{}, false
	}
	if c.dec {
		return Codec{buf: c.raw, dec: true}, true
	}
	return Codec{buf: c.buf, start: len(c.buf)}, true
}

// End closes a nested message Msg opened. An encoder puts the body's
// length in front of it; the body is rendered first and shifted by the
// prefix width, which for small control structures is cheaper than a
// second rendering pass. A decoder takes on the body's error.
func (c *Codec) End(sub *Codec) {
	if c.dec {
		if err := sub.Err(); err != nil && c.err == nil {
			c.err = err
		}
		return
	}
	var pfx [10]byte
	p := appendUvarint(pfx[:0], uint64(len(sub.buf)-sub.start))
	c.buf = append(sub.buf, p...)                     // grow by prefix width
	copy(c.buf[sub.start+len(p):], c.buf[sub.start:]) // shift body right
	copy(c.buf[sub.start:], p)                        // splice prefix in
}

// Elems returns the elements of repeated message field tag to code: all
// of *s when encoding, and when decoding that field one new zero element
// appended to *s. Code each through Msg(tag, true).
func Elems[S ~[]T, T any](c *Codec, tag uint32, s *S) S {
	if !c.dec {
		return *s
	}
	if c.tag != tag {
		return nil
	}
	var zero T
	*s = append(*s, zero)
	return (*s)[len(*s)-1:]
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }
