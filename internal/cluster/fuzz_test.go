package cluster

import (
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"tunable/internal/wire"
)

// message is a control message as the tests drive it: through its codec
// method.
type message interface{ codec(c *wire.Codec) }

// render appends a frame payload — tag byte, then m's body — to buf.
func render(buf []byte, tag byte, m message) []byte {
	c := wire.NewEncoder(append(buf, tag))
	m.codec(c)
	return c.Bytes()
}

// parse decodes body into m.
func parse(body []byte, m message) error {
	c := wire.NewDecoder(body)
	for c.Next() {
		m.codec(c)
	}
	return c.Err()
}

// FuzzControlBody feeds arbitrary control-frame payloads — byte 0 the
// request or ack tag, the rest its body — to the decoder the coordinator
// or a caller runs on it. Each must either refuse the body or decode it
// to a message whose strings and repeated elements together number no
// more than the body's bytes, and that re-encodes to at most the input's
// length and decodes again to an equal message: a decoder holds no more
// than its input carried, whatever the input.
func FuzzControlBody(f *testing.F) {
	seeds := []struct {
		tag byte
		m   message
	}{
		{ctagRegister, &NodeInfo{ID: "node-a", Addr: "10.0.0.7:7465", Role: RoleEdge, CPU: 0.5,
			MemBytes: 1 << 30, Side: 256, Levels: 4, Seeds: []int64{42, 0}, Sig: "s"}},
		{ctagDeregister, &nameReq{"node-a"}},
		{ctagResolve, &ResolveRequest{SID: "s1", Exclude: []string{"node-b", ""}, CPU: 0.25,
			MemBytes: -1, Sig: "s", Coarse: true}},
		{ctagEndSession, &nameReq{"s1"}},
		{ctagHeartbeat, &deltaBatch{Entries: []DeltaEntry{{ID: "node-a", Sessions: math.MinInt32}, {ID: "b"}}}},
		{ctagAck, &ackMsg{OK: true, Err: "e", Grant: ResolveGrant{NodeID: "n", Failover: true},
			Nodes: []NodeStatus{{ID: "n", Incarnation: 3, CPU: 1}}, Unknown: []string{"x"}}},
	}
	for _, s := range seeds {
		f.Add(render(nil, s.tag, s.m))
	}
	for _, fixture := range []string{"grant_ack", "refusal_ack", "register_zero", "resolve_request", "heartbeat"} {
		f.Add(readHex(f, "testdata/"+fixture+".hex")[6:]) // the payload after the frame header
	}
	old, err := hex.DecodeString(retiredDeltaFrame)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var got, again message
		switch data[0] {
		case ctagRegister:
			got, again = new(NodeInfo), new(NodeInfo)
		case ctagHeartbeat:
			got, again = new(deltaBatch), new(deltaBatch)
		case ctagDeregister, ctagEndSession:
			got, again = new(nameReq), new(nameReq)
		case ctagResolve:
			got, again = new(ResolveRequest), new(ResolveRequest)
		case ctagAck:
			got, again = new(ackMsg), new(ackMsg)
		default:
			return
		}
		body := data[1:]
		if parse(body, got) != nil {
			return
		}
		if b, ok := got.(*deltaBatch); ok && b.check() != nil {
			return
		}
		if n := decodedSize(reflect.ValueOf(got)); n > len(body) {
			t.Fatalf("%d-byte body decodes to %d string bytes and repeated elements", len(body), n)
		}
		re := render(nil, data[0], got)[1:]
		if err := parse(re, again); err != nil {
			t.Fatalf("re-encoding %x of %x does not decode: %v", re, body, err)
		}
		if !equalNaN(reflect.ValueOf(got), reflect.ValueOf(again)) {
			t.Fatalf("round trip changed the message:\n%+v\n%+v", got, again)
		}
		if len(re) > len(body) {
			t.Fatalf("%d-byte body re-encodes to %d bytes", len(body), len(re))
		}
	})
}

// decodedSize is what decoding a message allocated, in the units the
// input bounds: the bytes of every string plus the count of every
// repeated element, at every nesting level. Each element and each string
// byte took at least one byte of the body.
func decodedSize(v reflect.Value) int {
	switch v.Kind() {
	case reflect.String:
		return v.Len()
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return decodedSize(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += decodedSize(v.Field(i))
		}
		return n
	case reflect.Slice:
		n := v.Len()
		for i := 0; i < v.Len(); i++ {
			n += decodedSize(v.Index(i))
		}
		return n
	}
	return 0
}

// equalNaN is reflect.DeepEqual, except that NaN equals NaN: the codec
// carries a float's bits, and DeepEqual's == would refuse a NaN it kept.
func equalNaN(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || x != x && y != y
	case reflect.Bool:
		return a.Bool() == b.Bool() // also reads unexported fields
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
