package wire

import (
	"fmt"
	"math"
)

// The schema layer describes control messages declaratively — field name,
// wire kind, optionality — and interprets those descriptions at runtime,
// in the style of dynamic Kaitai-like binary schemas. Encoders and
// decoders are driven by the description rather than generated code, so
// adding a field is one line in a schema literal, and a decoder built
// from an older description skips fields it has never heard of by wire
// type alone. That forward compatibility is what lets mixed-version
// control planes exchange messages during rolling upgrades.
//
// Wire format (protobuf-shaped TLV): each field is a uvarint key
// (tag<<3 | wiretype) followed by the value. Wire types:
//
//	0 varint    — Uint, Sint (zigzag), Bool
//	1 fixed64   — F64 (little-endian IEEE 754)
//	2 len-delim — String, Bytes, Msg (uvarint length + bytes)
//
// Unknown tags are skipped by wire type; unknown wire types are errors.

// Kind is the declared type of a schema field.
type Kind uint8

const (
	// Uint is an unsigned integer, varint-encoded.
	Uint Kind = iota
	// Sint is a signed integer, zigzag-varint-encoded.
	Sint
	// Bool is a boolean, varint-encoded as 0 or 1.
	Bool
	// F64 is a float64, fixed64-encoded.
	F64
	// String is a UTF-8 string, length-delimited.
	String
	// Bytes is an opaque byte string, length-delimited.
	Bytes
	// Msg is a nested message, length-delimited. Repeated fields of any
	// kind are expressed by emitting the same tag multiple times.
	Msg
)

// wire types
const (
	wtVarint  = 0
	wtFixed64 = 1
	wtLen     = 2
)

func (k Kind) wireType() int {
	switch k {
	case F64:
		return wtFixed64
	case String, Bytes, Msg:
		return wtLen
	default:
		return wtVarint
	}
}

func (k Kind) String() string {
	switch k {
	case Uint:
		return "uint"
	case Sint:
		return "sint"
	case Bool:
		return "bool"
	case F64:
		return "f64"
	case String:
		return "string"
	case Bytes:
		return "bytes"
	case Msg:
		return "msg"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Field is one declared message field.
type Field struct {
	Name     string
	Tag      uint32 // wire tag, unique within the schema, ≥1
	Kind     Kind
	Required bool // decoder errors if the field never appears
}

// Schema is a runtime-interpreted message description. Build one with
// NewSchema at init time; it is immutable and safe for concurrent use.
type Schema struct {
	name   string
	fields []Field
	byTag  map[uint32]int // tag → index into fields
	reqAll uint64         // bit i set if fields[i] is required
}

// NewSchema validates and builds a schema. It panics on an invalid
// description (duplicate or zero tags, more than 64 fields) because
// schemas are package-level literals — a bad one is a programming error
// caught by any test that touches the package.
func NewSchema(name string, fields ...Field) *Schema {
	if len(fields) > 64 {
		panic(fmt.Sprintf("wire: schema %s has %d fields (max 64)", name, len(fields)))
	}
	s := &Schema{name: name, fields: fields, byTag: make(map[uint32]int, len(fields))}
	for i, f := range fields {
		if f.Tag == 0 {
			panic(fmt.Sprintf("wire: schema %s field %s has tag 0", name, f.Name))
		}
		if _, dup := s.byTag[f.Tag]; dup {
			panic(fmt.Sprintf("wire: schema %s duplicates tag %d", name, f.Tag))
		}
		s.byTag[f.Tag] = i
		if f.Required {
			s.reqAll |= 1 << uint(i)
		}
	}
	return s
}

// field resolves a field by name. Linear scan: schemas are small and the
// result is used on hot paths where a map hit would cost as much.
func (s *Schema) field(name string) (int, *Field) {
	for i := range s.fields {
		if s.fields[i].Name == name {
			return i, &s.fields[i]
		}
	}
	panic(fmt.Sprintf("wire: schema %s has no field %q", s.name, name))
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

// Encoder renders one message against a schema, appending to a caller
// buffer so steady-state encoding allocates nothing. Usage:
//
//	var e Encoder
//	e.Init(schema, buf[:0])
//	e.Uint("id", 7)
//	buf, err := e.Finish()
//
// Misuse (unknown field name, kind mismatch) panics, as with a malformed
// format string; wire-size problems surface from Finish.
type Encoder struct {
	s    *Schema
	buf  []byte
	seen uint64
}

// Init readies the encoder for one message, appending to buf.
func (e *Encoder) Init(s *Schema, buf []byte) {
	e.s, e.buf, e.seen = s, buf, 0
}

func (e *Encoder) key(name string, kind Kind) *Field {
	i, f := e.s.field(name)
	if f.Kind != kind {
		panic(fmt.Sprintf("wire: schema %s field %s is %v, encoded as %v", e.s.name, name, f.Kind, kind))
	}
	e.seen |= 1 << uint(i)
	e.buf = appendUvarint(e.buf, uint64(f.Tag)<<3|uint64(f.Kind.wireType()))
	return f
}

// Uint appends an unsigned-integer field.
func (e *Encoder) Uint(name string, v uint64) {
	e.key(name, Uint)
	e.buf = appendUvarint(e.buf, v)
}

// Sint appends a signed-integer field.
func (e *Encoder) Sint(name string, v int64) {
	e.key(name, Sint)
	e.buf = appendUvarint(e.buf, zigzag(v))
}

// Bool appends a boolean field.
func (e *Encoder) Bool(name string, v bool) {
	e.key(name, Bool)
	var b uint64
	if v {
		b = 1
	}
	e.buf = appendUvarint(e.buf, b)
}

// F64 appends a float64 field.
func (e *Encoder) F64(name string, v float64) {
	e.key(name, F64)
	bits := math.Float64bits(v)
	e.buf = append(e.buf, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
		byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
}

// Str appends a string field.
func (e *Encoder) Str(name, v string) {
	e.key(name, String)
	e.buf = appendUvarint(e.buf, uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// Bytes appends a byte-string field.
func (e *Encoder) Bytes(name string, v []byte) {
	e.key(name, Bytes)
	e.buf = appendUvarint(e.buf, uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// Msg appends a nested message whose body is rendered by fn against sub.
// The length prefix is inserted after the body is rendered (bytes shift
// by the width of the prefix — nested messages are small control
// structures, so the move is cheaper than a second rendering pass).
func (e *Encoder) Msg(name string, sub *Schema, fn func(*Encoder)) error {
	e.key(name, Msg)
	start := len(e.buf)
	outer, outerSeen := e.s, e.seen
	e.s, e.seen = sub, 0
	fn(e)
	buf, err := e.Finish()
	e.s, e.seen = outer, outerSeen
	if err != nil {
		return err
	}
	n := len(buf) - start
	var pfx [10]byte
	p := appendUvarint(pfx[:0], uint64(n))
	e.buf = append(buf, p...)                 // grow by prefix width
	copy(e.buf[start+len(p):], e.buf[start:]) // shift body right
	copy(e.buf[start:], p)                    // splice prefix in
	return nil
}

// Finish validates required fields and returns the rendered message.
func (e *Encoder) Finish() ([]byte, error) {
	if missing := e.s.reqAll &^ e.seen; missing != 0 {
		for i := range e.s.fields {
			if missing&(1<<uint(i)) != 0 {
				return nil, fmt.Errorf("wire: schema %s: required field %s not encoded", e.s.name, e.s.fields[i].Name)
			}
		}
	}
	return e.buf, nil
}

// Decoder walks one message against a schema, skipping unknown tags by
// wire type. Usage:
//
//	var d Decoder
//	d.Init(schema, msg)
//	for d.Next() {
//	    switch d.Field().Name {
//	    case "id": id = d.Uint()
//	    ...
//	    }
//	}
//	if err := d.Err(); err != nil { ... }
//
// Accessors return the current field's value; Bytes/StrBytes/MsgBytes
// alias the input buffer (valid only while it is).
type Decoder struct {
	s    *Schema
	buf  []byte
	off  int
	f    *Field // current known field, nil while skipping
	val  uint64 // varint or fixed64 payload
	raw  []byte // len-delimited payload
	seen uint64
	err  error
}

// Init readies the decoder for one message.
func (d *Decoder) Init(s *Schema, msg []byte) {
	*d = Decoder{s: s, buf: msg}
}

func (d *Decoder) fail(format string, args ...any) bool {
	if d.err == nil {
		d.err = fmt.Errorf("wire: schema %s at offset %d: %s", d.s.name, d.off, fmt.Sprintf(format, args...))
	}
	return false
}

func (d *Decoder) uvarint() (uint64, bool) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if d.off >= len(d.buf) {
			return 0, d.fail("truncated varint")
		}
		b := d.buf[d.off]
		d.off++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, true
		}
	}
	return 0, d.fail("varint overflows 64 bits")
}

// Next advances to the next field known to the schema, silently skipping
// unknown tags. It returns false at end of message or on error.
func (d *Decoder) Next() bool {
	for d.err == nil && d.off < len(d.buf) {
		key, ok := d.uvarint()
		if !ok {
			return false
		}
		tag, wt := uint32(key>>3), int(key&7)
		if tag == 0 {
			return d.fail("field tag 0")
		}
		var payload uint64
		var raw []byte
		switch wt {
		case wtVarint:
			if payload, ok = d.uvarint(); !ok {
				return false
			}
		case wtFixed64:
			if d.off+8 > len(d.buf) {
				return d.fail("truncated fixed64")
			}
			b := d.buf[d.off:]
			payload = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
				uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
			d.off += 8
		case wtLen:
			n, ok := d.uvarint()
			if !ok {
				return false
			}
			if n > uint64(len(d.buf)-d.off) {
				return d.fail("length-delimited field of %d bytes overruns message", n)
			}
			raw = d.buf[d.off : d.off+int(n)]
			d.off += int(n)
		default:
			return d.fail("unknown wire type %d (tag %d)", wt, tag)
		}
		i, known := d.s.byTag[tag]
		if !known {
			continue // forward compatibility: a newer peer's field
		}
		f := &d.s.fields[i]
		if f.Kind.wireType() != wt {
			return d.fail("field %s declared %v arrived as wire type %d", f.Name, f.Kind, wt)
		}
		d.f, d.val, d.raw = f, payload, raw
		d.seen |= 1 << uint(i)
		return true
	}
	return false
}

// Field returns the field Next stopped on.
func (d *Decoder) Field() *Field { return d.f }

// Uint returns the current field as an unsigned integer.
func (d *Decoder) Uint() uint64 { return d.val }

// Sint returns the current field as a signed integer.
func (d *Decoder) Sint() int64 { return unzigzag(d.val) }

// Bool returns the current field as a boolean.
func (d *Decoder) Bool() bool { return d.val != 0 }

// F64 returns the current field as a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.val) }

// Str returns the current field as a string (copies).
func (d *Decoder) Str() string { return string(d.raw) }

// StrBytes returns the current field's string bytes without copying.
func (d *Decoder) StrBytes() []byte { return d.raw }

// Bytes returns the current field's bytes without copying.
func (d *Decoder) Bytes() []byte { return d.raw }

// MsgBytes returns the current nested-message body without copying;
// decode it with a fresh Decoder against the nested schema.
func (d *Decoder) MsgBytes() []byte { return d.raw }

// Err reports the first decoding error, or a missing-required-field
// error once the message is exhausted. Call it after Next returns false.
func (d *Decoder) Err() error {
	if d.err != nil {
		return d.err
	}
	if d.off >= len(d.buf) {
		if missing := d.s.reqAll &^ d.seen; missing != 0 {
			for i := range d.s.fields {
				if missing&(1<<uint(i)) != 0 {
					return fmt.Errorf("wire: schema %s: required field %s absent", d.s.name, d.s.fields[i].Name)
				}
			}
		}
	}
	return nil
}
