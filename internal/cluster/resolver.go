package cluster

import (
	"time"

	"tunable/internal/metrics"
	"tunable/internal/wire"
)

// Resolver is the client-side stub of the coordinator: it turns a session
// ID into a server address, reporting failed nodes back so re-resolution
// steers around them, and releases the session's reservation on Close.
// Transport failures on control calls are retried transparently with
// jittered backoff (one retry per call); coordinator refusals are not.
type Resolver struct {
	cl *client
}

// NewResolver creates a resolver for the coordinator at addr. timeout
// bounds each control call (dial + frame progress); 0 picks 5s.
func NewResolver(addr string, timeout time.Duration) *Resolver {
	return &Resolver{cl: newClient(addr, timeout)}
}

// EnableMetrics instruments the resolver: cluster_ctrl_retries_total
// (role="resolver") counts transparently retried control calls, and the
// wire_* families cover its control connections.
func (r *Resolver) EnableMetrics(reg *metrics.Registry) { r.cl.enableMetrics(reg, "resolver") }

// SetDialer interposes on control-plane dials (fault injection).
func (r *Resolver) SetDialer(dial DialFunc) { r.cl.setDialer(dial) }

// Resolve asks the coordinator to place the session.
func (r *Resolver) Resolve(req ResolveRequest) (ResolveGrant, error) {
	ack, err := r.cl.call(func(buf []byte) ([]byte, error) {
		c := wire.NewEncoder(append(buf, ctagResolve))
		req.codec(c)
		return c.Bytes(), nil
	})
	if err != nil {
		return ResolveGrant{}, err
	}
	return ack.Grant, nil
}

// EndSession releases the session's reservation on the coordinator.
func (r *Resolver) EndSession(sid string) error {
	_, err := r.cl.call(func(buf []byte) ([]byte, error) {
		c := wire.NewEncoder(append(buf, ctagEndSession))
		(&nameReq{sid}).codec(c)
		return c.Bytes(), nil
	})
	return err
}

// Nodes fetches the coordinator's registry view.
func (r *Resolver) Nodes() ([]NodeStatus, error) {
	// A node-listing request has no body fields (yet).
	ack, err := r.cl.call(func(buf []byte) ([]byte, error) { return append(buf, ctagNodes), nil })
	if err != nil {
		return nil, err
	}
	return ack.Nodes, nil
}

// Close releases the control connection.
func (r *Resolver) Close() { r.cl.close() }
