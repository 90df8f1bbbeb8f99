package cluster

import (
	"time"

	"tunable/internal/metrics"
	"tunable/internal/perfstore"
)

// Resolver is the client-side stub of the coordinator: it turns a session
// ID into a server address, reporting failed nodes back so re-resolution
// steers around them, and releases the session's reservation on Close.
// Transport failures on control calls are retried transparently with
// jittered backoff (see SetRetryPolicy); coordinator refusals are not.
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

// SetRetryPolicy bounds the transparent retries under each control call.
func (r *Resolver) SetRetryPolicy(attempts int, b Backoff, budget *RetryBudget) {
	r.cl.setRetryPolicy(attempts, b, budget)
}

// SetDialer interposes on control-plane dials (fault injection).
func (r *Resolver) SetDialer(dial DialFunc) { r.cl.setDialer(dial) }

// Resolve asks the coordinator to place the session.
func (r *Resolver) Resolve(req ResolveRequest) (ResolveGrant, error) {
	ack, err := r.cl.call(func(buf []byte) ([]byte, error) { return encodeResolve(buf, req) })
	if err != nil {
		return ResolveGrant{}, err
	}
	return ack.Grant, nil
}

// EndSession releases the session's reservation on the coordinator.
func (r *Resolver) EndSession(sid string) error {
	_, err := r.cl.call(func(buf []byte) ([]byte, error) {
		return encodeStrMsg(buf, ctagEndSession, schSession, "sid", sid)
	})
	return err
}

// PublishSamples pushes telemetry samples into the coordinator's shared
// performance store, returning how many were accepted for ingest.
func (r *Resolver) PublishSamples(samples []perfstore.WireSample) (int, error) {
	ack, err := r.cl.call(func(buf []byte) ([]byte, error) { return encodePerfIngest(buf, samples) })
	if err != nil {
		return 0, err
	}
	return ack.Accepted, nil
}

// FetchProfile retrieves the refined overlay for a configuration key from
// the coordinator's shared performance store.
func (r *Resolver) FetchProfile(configKey string) (*perfstore.Profile, error) {
	ack, err := r.cl.call(func(buf []byte) ([]byte, error) {
		return encodeStrMsg(buf, ctagPerfProfile, schPerfProfile, "config", configKey)
	})
	if err != nil {
		return nil, err
	}
	return ack.Profile, nil
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
