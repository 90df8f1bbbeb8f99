package avis

import (
	"time"

	"tunable/internal/compress"
	"tunable/internal/netem"
	"tunable/internal/sandbox"
	"tunable/internal/spec"
	"tunable/internal/steering"
	"tunable/internal/vtime"
)

// Client is the client-side component of the application on the
// virtual-time testbed: the session core bound to a sandbox and a link
// endpoint. A steering agent may be attached; configuration changes apply
// at round boundaries (the task's transition points), with
// resolution-level changes deferred to the next image.
type Client struct {
	session
	venv vtimeEnv
}

// ClientOption customizes a client.
type ClientOption func(*Client)

// WithVerification enables canvas reconstruction and PSNR measurement
// against the source images (costly in real time; off by default). A
// verifying client reads every chunk, so it decodes every reply.
func WithVerification(store *ImageStore, seeds []int64) ClientOption {
	return func(cl *Client) { cl.store, cl.seeds, cl.memo = store, seeds, nil }
}

// withInteraction installs a fovea-movement model (Figure 2's
// check_for_user_interaction).
func withInteraction(fn func(img, round int) (int, int, bool)) ClientOption {
	return func(cl *Client) { cl.interaction = fn }
}

// withRetry enables loss recovery: a round whose reply stalls for longer
// than timeout is retransmitted (up to maxRetries times per round), with
// per-attempt sequence numbers so stale segments from the aborted attempt
// are discarded.
func withRetry(timeout time.Duration, maxRetries int) ClientOption {
	return func(cl *Client) {
		cl.retryTimeout = timeout
		cl.maxRetries = maxRetries
	}
}

// NewClient creates a client with the given initial parameters, running in
// sandbox sb over endpoint ep.
func NewClient(sb *sandbox.Sandbox, ep *netem.Endpoint, params Params, opts ...ClientOption) (*Client, error) {
	codec, err := compress.Lookup(params.Codec)
	if err != nil {
		return nil, err
	}
	c := &Client{venv: vtimeEnv{ep: ep, sb: sb, out: ep.SendMsg}}
	c.session = session{env: &c.venv, cost: DefaultCostModel(), params: params, codec: codec, memo: sharedMemo}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// AttachSteering connects a steering agent: the client polls it at round
// boundaries and registers the notify_server transition action, which
// sends the codec announcement to the server exactly as the annotated
// transition block of Figure 2 does.
func (c *Client) AttachSteering(agent *steering.Agent) {
	c.poll = func() (spec.Config, bool) { return agent.MaybeApply(c.venv.p) }
	agent.OnAction("notify_server", func(p *vtime.Proc, cur, next spec.Config) {
		if v, ok := next["c"]; ok {
			c.venv.p = p
			_ = c.setCodec(v.S) // an unknown codec leaves the session as it was
		}
	})
}

// Connect performs the geometry handshake and announces the initial
// compression type.
func (c *Client) Connect(p *vtime.Proc) error {
	c.venv.p = p
	return c.connect()
}

// FetchImage downloads one image: the annotated while-loop of Figure 2.
func (c *Client) FetchImage(p *vtime.Proc, img int) (ImageStat, error) {
	c.venv.p = p
	return c.fetchImage(img, nil, nil, nil)
}

// Close ends the session.
func (c *Client) Close(p *vtime.Proc) {
	c.venv.p = p
	c.close()
	c.venv.ep.Close()
}

// Session is a whole client run: connect, download n images (cycling
// through the served set), close. It returns the per-image statistics of
// the images that completed.
func (c *Client) Session(p *vtime.Proc, n int) ([]ImageStat, error) {
	if err := c.Connect(p); err != nil {
		return nil, err
	}
	defer c.Close(p)
	stats := make([]ImageStat, 0, n)
	for i := 0; i < n; i++ {
		st, err := c.FetchImage(p, i%c.geom.NumImages)
		if err != nil {
			return stats, err
		}
		stats = append(stats, st)
	}
	return stats, nil
}
