// Package wire is the frame protocol under every avis connection — the
// data plane (internal/avis, internal/edge) and the cluster control plane
// (internal/cluster) both speak it.
//
// There is one framing, in force from the first byte: a fixed 6-byte
// header — little-endian uint32 payload length, message type, reserved
// flags byte — followed by the payload, so a frame is read with exactly
// two ReadFull calls into a pooled buffer and written as one vectored
// write (header and payload gathered into a single writev; a multi-frame
// reply batch is also a single writev). Consumers see a message as its
// tag byte followed by the body; the tag travels in the header.
//
// Every client opens with a handshake in that same framing: a message
// carrying a magic number, the highest version the sender speaks, and a
// capability bitmap, which the peer answers with its own. Both sides then
// run min(version) with the AND of the capability sets. The handshake is
// an input check, not a compatibility switch: a peer that answers the
// probe with anything else, or announces a version below 2, is refused
// with a *HandshakeError — never silently downgraded. The older
// length-prefixed v1 framing (tag inside the payload) is not a supported
// contract; the golden fixtures under testdata/ pin the only protocol
// there is.
//
// The accept side of every component is an Acceptor: the accept loop, the
// live-connection set, the handshake answer and the drain-then-force
// shutdown, once.
//
// No capability bits are assigned yet; the bitmap is reserved for
// encodings a future build may gate. Control-plane bodies are always the
// runtime-interpreted binary schemas of schema.go.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is a wire-protocol version, as announced in the handshake.
type Version uint8

const (
	// V2 is the framing with the 6-byte length/type/flags header — the
	// lowest version a peer may announce.
	V2 Version = 2
	// MaxVersion is the highest version this build speaks.
	MaxVersion = V2
)

// Caps is the handshake's capability bitmap. The effective capability set
// of a connection is the AND of what both ends advertised.
type Caps uint32

// TagNegotiate is the message tag of the handshake probe and reply: a
// printable byte outside every application tag map.
const TagNegotiate = 'V'

// Magic guards the handshake payload against a stray frame that merely
// starts with 'V' ("AVW2" little-endian).
const Magic uint32 = 0x32575641

// negotiateLen is the exact handshake message length:
// tag(1) + magic(4) + version(1) + caps(4).
const negotiateLen = 10

// HandshakeError reports a peer that did not complete the version
// handshake: it answered the probe with some other message, or announced
// a version this build does not speak. The connection is unusable.
type HandshakeError struct {
	Reason string
}

func (e *HandshakeError) Error() string { return "wire: handshake refused: " + e.Reason }

// FrameLimit bounds a single frame's payload (a frame carries at most one
// reply segment plus headers). Writers enforce it on send (see
// FrameSizeError); readers enforce it before allocating.
const FrameLimit = 1 << 22

// ErrFrameTooLarge is the sentinel matched by errors.Is for frames
// rejected on the send side; the concrete error is a *FrameSizeError.
var ErrFrameTooLarge = errors.New("wire: frame exceeds limit")

// FrameSizeError reports a frame whose payload exceeds FrameLimit. It is
// returned on the send side before any byte is written, so an oversize
// message never half-escapes onto the wire (where every reader would
// reject it) and a >4 GiB payload is never silently truncated by the
// uint32 length field.
type FrameSizeError struct {
	N     int // offending payload size
	Limit int // the enforced bound (FrameLimit)
}

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("wire: frame of %d bytes exceeds the %d-byte limit", e.N, e.Limit)
}

// Is matches ErrFrameTooLarge.
func (e *FrameSizeError) Is(target error) bool { return target == ErrFrameTooLarge }

// IsNegotiate reports whether msg is a well-formed handshake message
// (probe or reply).
func IsNegotiate(msg []byte) bool {
	return len(msg) == negotiateLen && msg[0] == TagNegotiate &&
		binary.LittleEndian.Uint32(msg[1:]) == Magic
}

// appendNegotiate renders a handshake probe/reply into buf.
func appendNegotiate(buf []byte, ver Version, caps Caps) []byte {
	var b [negotiateLen]byte
	b[0] = TagNegotiate
	binary.LittleEndian.PutUint32(b[1:], Magic)
	b[5] = byte(ver)
	binary.LittleEndian.PutUint32(b[6:], uint32(caps))
	return append(buf, b[:]...)
}

// parseNegotiate decodes a handshake message. Versions above MaxVersion
// are legal (the peer is newer; the caller runs the lower of the two),
// versions below V2 are refused.
func parseNegotiate(msg []byte) (Version, Caps, error) {
	if !IsNegotiate(msg) {
		return 0, 0, &HandshakeError{Reason: fmt.Sprintf("peer sent a %d-byte message tagged %q, not a handshake",
			len(msg), msg[:min(1, len(msg))])}
	}
	ver := Version(msg[5])
	if ver < V2 {
		return 0, 0, &HandshakeError{Reason: fmt.Sprintf("peer announces version %d, below the supported %d", ver, V2)}
	}
	return ver, Caps(binary.LittleEndian.Uint32(msg[6:])), nil
}
