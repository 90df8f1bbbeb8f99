package cluster

import (
	"sort"

	"tunable/internal/perfstore"
	"tunable/internal/wire"
)

// Schema-coded control messages: the body of every control-plane frame
// (bar the delta batch) is rendered against the runtime-interpreted
// binary schemas below, behind its ctag* tag byte. Field tags are
// append-only — a new field gets the next tag and old decoders skip it by
// wire type — which is the forward-compatibility contract between builds
// of different age. The golden fixtures under testdata/ pin the bytes.
//
// Maps (sample resources/metrics) are encoded as repeated {k, v}
// sub-messages with keys sorted, so equal messages encode to equal bytes.

var (
	schKV = wire.NewSchema("kv",
		wire.Field{Name: "k", Tag: 1, Kind: wire.String, Required: true},
		wire.Field{Name: "v", Tag: 2, Kind: wire.F64, Required: true},
	)

	schNodeInfo = wire.NewSchema("node_info",
		wire.Field{Name: "id", Tag: 1, Kind: wire.String, Required: true},
		wire.Field{Name: "addr", Tag: 2, Kind: wire.String, Required: true},
		wire.Field{Name: "role", Tag: 3, Kind: wire.String},
		wire.Field{Name: "cpu", Tag: 4, Kind: wire.F64},
		wire.Field{Name: "mem", Tag: 5, Kind: wire.Sint},
		wire.Field{Name: "side", Tag: 6, Kind: wire.Uint},
		wire.Field{Name: "levels", Tag: 7, Kind: wire.Uint},
		wire.Field{Name: "seed", Tag: 8, Kind: wire.Sint}, // repeated
		wire.Field{Name: "sig", Tag: 9, Kind: wire.String},
	)

	schNodeID = wire.NewSchema("node_id",
		wire.Field{Name: "id", Tag: 1, Kind: wire.String, Required: true},
	)

	schSession = wire.NewSchema("session",
		wire.Field{Name: "sid", Tag: 1, Kind: wire.String, Required: true},
	)

	schResolve = wire.NewSchema("resolve",
		wire.Field{Name: "sid", Tag: 1, Kind: wire.String, Required: true},
		wire.Field{Name: "exclude", Tag: 2, Kind: wire.String}, // repeated
		wire.Field{Name: "cpu", Tag: 3, Kind: wire.F64},
		wire.Field{Name: "mem", Tag: 4, Kind: wire.Sint},
		wire.Field{Name: "sig", Tag: 5, Kind: wire.String},
		wire.Field{Name: "coarse", Tag: 6, Kind: wire.Bool},
	)

	schGrant = wire.NewSchema("grant",
		wire.Field{Name: "node", Tag: 1, Kind: wire.String},
		wire.Field{Name: "addr", Tag: 2, Kind: wire.String},
		wire.Field{Name: "sig", Tag: 3, Kind: wire.String},
		wire.Field{Name: "failover", Tag: 4, Kind: wire.Bool},
	)

	schNodeStatus = wire.NewSchema("node_status",
		wire.Field{Name: "id", Tag: 1, Kind: wire.String, Required: true},
		wire.Field{Name: "addr", Tag: 2, Kind: wire.String},
		wire.Field{Name: "role", Tag: 3, Kind: wire.String},
		wire.Field{Name: "state", Tag: 4, Kind: wire.String},
		wire.Field{Name: "sig", Tag: 5, Kind: wire.String},
		wire.Field{Name: "active", Tag: 6, Kind: wire.Uint},
		wire.Field{Name: "cpu", Tag: 7, Kind: wire.F64},
		wire.Field{Name: "reserved_cpu", Tag: 8, Kind: wire.F64},
		wire.Field{Name: "sessions", Tag: 9, Kind: wire.Uint},
		wire.Field{Name: "incarnation", Tag: 10, Kind: wire.Uint},
	)

	schSample = wire.NewSchema("sample",
		wire.Field{Name: "config", Tag: 1, Kind: wire.String, Required: true},
		wire.Field{Name: "resource", Tag: 2, Kind: wire.Msg}, // repeated kv
		wire.Field{Name: "metric", Tag: 3, Kind: wire.Msg},   // repeated kv
		wire.Field{Name: "at", Tag: 4, Kind: wire.Sint},
		wire.Field{Name: "source", Tag: 5, Kind: wire.String},
	)

	schPerfIngest = wire.NewSchema("perf_ingest",
		wire.Field{Name: "sample", Tag: 1, Kind: wire.Msg}, // repeated
	)

	schPerfProfile = wire.NewSchema("perf_profile",
		wire.Field{Name: "config", Tag: 1, Kind: wire.String},
	)

	schRecord = wire.NewSchema("profile_record",
		wire.Field{Name: "resource", Tag: 1, Kind: wire.Msg}, // repeated kv
		wire.Field{Name: "metric", Tag: 2, Kind: wire.Msg},   // repeated kv
		wire.Field{Name: "weight", Tag: 3, Kind: wire.F64},
		wire.Field{Name: "samples", Tag: 4, Kind: wire.Sint},
	)

	schProfile = wire.NewSchema("profile",
		wire.Field{Name: "config", Tag: 1, Kind: wire.String},
		wire.Field{Name: "version", Tag: 2, Kind: wire.Uint},
		wire.Field{Name: "record", Tag: 3, Kind: wire.Msg}, // repeated
	)

	schAck = wire.NewSchema("ack",
		wire.Field{Name: "ok", Tag: 1, Kind: wire.Bool},
		wire.Field{Name: "err", Tag: 2, Kind: wire.String},
		// tag 3 is reserved: older builds sent a bool there; do not reuse it
		wire.Field{Name: "grant", Tag: 4, Kind: wire.Msg},
		wire.Field{Name: "node", Tag: 5, Kind: wire.Msg},       // repeated NodeStatus
		wire.Field{Name: "unknown", Tag: 6, Kind: wire.String}, // repeated
		wire.Field{Name: "accepted", Tag: 7, Kind: wire.Uint},
		wire.Field{Name: "profile", Tag: 8, Kind: wire.Msg},
	)
)

// encMap appends a string→float64 map as repeated kv sub-messages under
// field, keys sorted for a deterministic encoding.
func encMap(e *wire.Encoder, field string, m map[string]float64) error {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		k := k
		if err := e.Msg(field, schKV, func(e *wire.Encoder) {
			e.Str("k", k)
			e.F64("v", m[k])
		}); err != nil {
			return err
		}
	}
	return nil
}

// decKV decodes one kv sub-message.
func decKV(body []byte) (string, float64, error) {
	var d wire.Decoder
	d.Init(schKV, body)
	var k string
	var v float64
	for d.Next() {
		switch d.Field().Name {
		case "k":
			k = d.Str()
		case "v":
			v = d.F64()
		}
	}
	return k, v, d.Err()
}

func decMapField(d *wire.Decoder, m map[string]float64) (map[string]float64, error) {
	k, v, err := decKV(d.MsgBytes())
	if err != nil {
		return m, err
	}
	if m == nil {
		m = make(map[string]float64, 4)
	}
	m[k] = v
	return m, nil
}

// Every encodeX appends tag + schema body to buf (usually a pooled buffer
// sliced to [:0]) and returns it; every decodeX parses a body (the frame
// after its tag byte).

func encodeRegister(buf []byte, info NodeInfo) ([]byte, error) {
	var e wire.Encoder
	e.Init(schNodeInfo, append(buf, ctagRegister))
	e.Str("id", info.ID)
	e.Str("addr", info.Addr)
	if info.Role != "" {
		e.Str("role", info.Role)
	}
	e.F64("cpu", info.CPU)
	e.Sint("mem", info.MemBytes)
	e.Uint("side", uint64(info.Side))
	e.Uint("levels", uint64(info.Levels))
	for _, s := range info.Seeds {
		e.Sint("seed", s)
	}
	if info.Sig != "" {
		e.Str("sig", info.Sig)
	}
	return e.Finish()
}

func decodeRegister(body []byte) (NodeInfo, error) {
	var d wire.Decoder
	d.Init(schNodeInfo, body)
	var info NodeInfo
	for d.Next() {
		switch d.Field().Name {
		case "id":
			info.ID = d.Str()
		case "addr":
			info.Addr = d.Str()
		case "role":
			info.Role = d.Str()
		case "cpu":
			info.CPU = d.F64()
		case "mem":
			info.MemBytes = d.Sint()
		case "side":
			info.Side = int(d.Uint())
		case "levels":
			info.Levels = int(d.Uint())
		case "seed":
			info.Seeds = append(info.Seeds, d.Sint())
		case "sig":
			info.Sig = d.Str()
		}
	}
	return info, d.Err()
}

// encodeStrMsg renders a message whose body is one string field — the
// deregister (node ID), end-session (session ID) and perf-profile (config
// key) requests.
func encodeStrMsg(buf []byte, tag byte, s *wire.Schema, field, v string) ([]byte, error) {
	var e wire.Encoder
	e.Init(s, append(buf, tag))
	e.Str(field, v)
	return e.Finish()
}

// decodeStrMsg parses the body encodeStrMsg rendered.
func decodeStrMsg(s *wire.Schema, field string, body []byte) (string, error) {
	var d wire.Decoder
	d.Init(s, body)
	var v string
	for d.Next() {
		if d.Field().Name == field {
			v = d.Str()
		}
	}
	return v, d.Err()
}

func encodeResolve(buf []byte, req ResolveRequest) ([]byte, error) {
	var e wire.Encoder
	e.Init(schResolve, append(buf, ctagResolve))
	e.Str("sid", req.SID)
	for _, x := range req.Exclude {
		e.Str("exclude", x)
	}
	if req.CPU != 0 {
		e.F64("cpu", req.CPU)
	}
	if req.MemBytes != 0 {
		e.Sint("mem", req.MemBytes)
	}
	if req.Sig != "" {
		e.Str("sig", req.Sig)
	}
	if req.Coarse {
		e.Bool("coarse", true)
	}
	return e.Finish()
}

func decodeResolve(body []byte) (ResolveRequest, error) {
	var d wire.Decoder
	d.Init(schResolve, body)
	var req ResolveRequest
	for d.Next() {
		switch d.Field().Name {
		case "sid":
			req.SID = d.Str()
		case "exclude":
			req.Exclude = append(req.Exclude, d.Str())
		case "cpu":
			req.CPU = d.F64()
		case "mem":
			req.MemBytes = d.Sint()
		case "sig":
			req.Sig = d.Str()
		case "coarse":
			req.Coarse = d.Bool()
		}
	}
	return req, d.Err()
}

func encodeSampleBody(e *wire.Encoder, s *perfstore.WireSample) error {
	e.Str("config", s.Config)
	if err := encMap(e, "resource", s.Resources); err != nil {
		return err
	}
	if err := encMap(e, "metric", s.Metrics); err != nil {
		return err
	}
	if s.AtNanos != 0 {
		e.Sint("at", s.AtNanos)
	}
	if s.Source != "" {
		e.Str("source", s.Source)
	}
	return nil
}

func decodeSample(body []byte) (perfstore.WireSample, error) {
	var d wire.Decoder
	d.Init(schSample, body)
	var s perfstore.WireSample
	var err error
	for d.Next() {
		switch d.Field().Name {
		case "config":
			s.Config = d.Str()
		case "resource":
			if s.Resources, err = decMapField(&d, s.Resources); err != nil {
				return s, err
			}
		case "metric":
			if s.Metrics, err = decMapField(&d, s.Metrics); err != nil {
				return s, err
			}
		case "at":
			s.AtNanos = d.Sint()
		case "source":
			s.Source = d.Str()
		}
	}
	return s, d.Err()
}

func encodePerfIngest(buf []byte, samples []perfstore.WireSample) ([]byte, error) {
	var e wire.Encoder
	e.Init(schPerfIngest, append(buf, ctagPerfIngest))
	for i := range samples {
		s := &samples[i]
		var serr error
		if err := e.Msg("sample", schSample, func(e *wire.Encoder) {
			serr = encodeSampleBody(e, s)
		}); err != nil {
			return nil, err
		} else if serr != nil {
			return nil, serr
		}
	}
	return e.Finish()
}

func decodePerfIngest(body []byte) ([]perfstore.WireSample, error) {
	var d wire.Decoder
	d.Init(schPerfIngest, body)
	var samples []perfstore.WireSample
	for d.Next() {
		if d.Field().Name == "sample" {
			s, err := decodeSample(d.MsgBytes())
			if err != nil {
				return samples, err
			}
			samples = append(samples, s)
		}
	}
	return samples, d.Err()
}

func encodeGrantBody(e *wire.Encoder, g ResolveGrant) {
	if g.NodeID != "" {
		e.Str("node", g.NodeID)
	}
	if g.Addr != "" {
		e.Str("addr", g.Addr)
	}
	if g.Sig != "" {
		e.Str("sig", g.Sig)
	}
	if g.Failover {
		e.Bool("failover", true)
	}
}

func decodeGrant(body []byte) (ResolveGrant, error) {
	var d wire.Decoder
	d.Init(schGrant, body)
	var g ResolveGrant
	for d.Next() {
		switch d.Field().Name {
		case "node":
			g.NodeID = d.Str()
		case "addr":
			g.Addr = d.Str()
		case "sig":
			g.Sig = d.Str()
		case "failover":
			g.Failover = d.Bool()
		}
	}
	return g, d.Err()
}

func encodeNodeStatusBody(e *wire.Encoder, n *NodeStatus) {
	e.Str("id", n.ID)
	e.Str("addr", n.Addr)
	if n.Role != "" {
		e.Str("role", n.Role)
	}
	e.Str("state", n.State)
	e.Str("sig", n.Sig)
	e.Uint("active", uint64(n.Load.ActiveSessions))
	e.F64("cpu", n.CPU)
	e.F64("reserved_cpu", n.ReservedCPU)
	e.Uint("sessions", uint64(n.Sessions))
	e.Uint("incarnation", n.Incarnation)
}

func decodeNodeStatus(body []byte) (NodeStatus, error) {
	var d wire.Decoder
	d.Init(schNodeStatus, body)
	var n NodeStatus
	for d.Next() {
		switch d.Field().Name {
		case "id":
			n.ID = d.Str()
		case "addr":
			n.Addr = d.Str()
		case "role":
			n.Role = d.Str()
		case "state":
			n.State = d.Str()
		case "sig":
			n.Sig = d.Str()
		case "active":
			n.Load.ActiveSessions = int(d.Uint())
		case "cpu":
			n.CPU = d.F64()
		case "reserved_cpu":
			n.ReservedCPU = d.F64()
		case "sessions":
			n.Sessions = int(d.Uint())
		case "incarnation":
			n.Incarnation = d.Uint()
		}
	}
	return n, d.Err()
}

func encodeRecordBody(e *wire.Encoder, r *perfstore.ProfileRecord) error {
	if err := encMap(e, "resource", r.Resources); err != nil {
		return err
	}
	if err := encMap(e, "metric", r.Metrics); err != nil {
		return err
	}
	e.F64("weight", r.Weight)
	e.Sint("samples", r.Samples)
	return nil
}

func decodeRecord(body []byte) (perfstore.ProfileRecord, error) {
	var d wire.Decoder
	d.Init(schRecord, body)
	var r perfstore.ProfileRecord
	var err error
	for d.Next() {
		switch d.Field().Name {
		case "resource":
			if r.Resources, err = decMapField(&d, r.Resources); err != nil {
				return r, err
			}
		case "metric":
			if r.Metrics, err = decMapField(&d, r.Metrics); err != nil {
				return r, err
			}
		case "weight":
			r.Weight = d.F64()
		case "samples":
			r.Samples = d.Sint()
		}
	}
	return r, d.Err()
}

func encodeProfileBody(e *wire.Encoder, p *perfstore.Profile) error {
	e.Str("config", p.ConfigKey)
	e.Uint("version", p.Version)
	for i := range p.Records {
		r := &p.Records[i]
		var rerr error
		if err := e.Msg("record", schRecord, func(e *wire.Encoder) {
			rerr = encodeRecordBody(e, r)
		}); err != nil {
			return err
		} else if rerr != nil {
			return rerr
		}
	}
	return nil
}

func decodeProfile(body []byte) (*perfstore.Profile, error) {
	var d wire.Decoder
	d.Init(schProfile, body)
	p := &perfstore.Profile{}
	for d.Next() {
		switch d.Field().Name {
		case "config":
			p.ConfigKey = d.Str()
		case "version":
			p.Version = d.Uint()
		case "record":
			r, err := decodeRecord(d.MsgBytes())
			if err != nil {
				return nil, err
			}
			p.Records = append(p.Records, r)
		}
	}
	return p, d.Err()
}

// encodeAck renders the coordinator's reply (tag + body), appending to
// buf.
func encodeAck(buf []byte, ack *ackMsg) ([]byte, error) {
	var e wire.Encoder
	e.Init(schAck, append(buf, ctagAck))
	e.Bool("ok", ack.OK)
	if ack.Err != "" {
		e.Str("err", ack.Err)
	}
	if ack.Grant != (ResolveGrant{}) {
		g := ack.Grant
		if err := e.Msg("grant", schGrant, func(e *wire.Encoder) {
			encodeGrantBody(e, g)
		}); err != nil {
			return nil, err
		}
	}
	for i := range ack.Nodes {
		n := &ack.Nodes[i]
		if err := e.Msg("node", schNodeStatus, func(e *wire.Encoder) {
			encodeNodeStatusBody(e, n)
		}); err != nil {
			return nil, err
		}
	}
	for _, u := range ack.Unknown {
		e.Str("unknown", u)
	}
	if ack.Accepted != 0 {
		e.Uint("accepted", uint64(ack.Accepted))
	}
	if ack.Profile != nil {
		p := ack.Profile
		var perr error
		if err := e.Msg("profile", schProfile, func(e *wire.Encoder) {
			perr = encodeProfileBody(e, p)
		}); err != nil {
			return nil, err
		} else if perr != nil {
			return nil, perr
		}
	}
	return e.Finish()
}

// decodeAck parses an ack body.
func decodeAck(body []byte) (ackMsg, error) {
	var d wire.Decoder
	d.Init(schAck, body)
	var ack ackMsg
	for d.Next() {
		switch d.Field().Name {
		case "ok":
			ack.OK = d.Bool()
		case "err":
			ack.Err = d.Str()
		case "grant":
			g, err := decodeGrant(d.MsgBytes())
			if err != nil {
				return ack, err
			}
			ack.Grant = g
		case "node":
			n, err := decodeNodeStatus(d.MsgBytes())
			if err != nil {
				return ack, err
			}
			ack.Nodes = append(ack.Nodes, n)
		case "unknown":
			ack.Unknown = append(ack.Unknown, d.Str())
		case "accepted":
			ack.Accepted = int(d.Uint())
		case "profile":
			p, err := decodeProfile(d.MsgBytes())
			if err != nil {
				return ack, err
			}
			ack.Profile = p
		}
	}
	return ack, d.Err()
}
