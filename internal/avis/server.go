package avis

import (
	"fmt"

	"tunable/internal/netem"
	"tunable/internal/sandbox"
	"tunable/internal/vtime"
)

// Server is the server-side component on the virtual-time testbed: it
// holds images as wavelet pyramids and answers foveal increment requests,
// compressing replies with the codec the client last announced.
type Server struct {
	serverSession
	pyr  pyramids
	venv vtimeEnv
}

// ServerOption customizes a server.
type ServerOption func(*Server)

// WithStore overrides the pyramid cache.
func WithStore(st *ImageStore) ServerOption { return func(s *Server) { s.pyr.store = st } }

// NewServer creates a server for a set of synthetic images (one per seed)
// of the given geometry, running inside sandbox sb and speaking over
// endpoint ep.
func NewServer(sb *sandbox.Sandbox, ep *netem.Endpoint, side, levels int, seeds []int64, opts ...ServerOption) (*Server, error) {
	if side <= 0 || levels <= 0 || len(seeds) == 0 {
		return nil, fmt.Errorf("avis: invalid server geometry")
	}
	geom := Geometry{Side: side, Levels: levels, NumImages: len(seeds)}
	s := &Server{venv: vtimeEnv{ep: ep, sb: sb}}
	s.pyr = pyramids{geom: geom, seeds: seeds, store: sharedStore, tel: &serverTelemetry{}, env: &s.venv}
	s.serverSession = newServerSession(geom, &s.pyr, s.pyr.tel)
	s.cost, s.pyr.cost = DefaultCostModel(), DefaultCostModel()
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// Run services the connection until the client closes it. It spawns a
// dedicated sender process so compression of slice k+1 overlaps
// transmission of slice k.
func (s *Server) Run(p *vtime.Proc) error {
	sendQ := vtime.NewNamedChan[netem.Message](p.Sim(), 4, "avis.server.sendq")
	senderDone := vtime.NewEvent(p.Sim(), "avis.server.sender.done")
	p.Spawn("avis-server-sender", func(sp *vtime.Proc) {
		for {
			msg, ok := sendQ.Recv(sp)
			if !ok {
				break
			}
			s.venv.ep.SendMsg(sp, msg)
		}
		senderDone.Set()
	})
	defer func() {
		sendQ.Close()
		senderDone.Wait(p)
	}()
	s.venv.p, s.venv.out = p, sendQ.Send
	return s.run(&s.venv)
}
