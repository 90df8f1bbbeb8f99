package avis

import (
	"fmt"
	"time"

	"tunable/internal/imagery"
	"tunable/internal/netem"
	"tunable/internal/sandbox"
	"tunable/internal/vtime"
)

// refPSNR compares a reconstruction against its reference image.
func refPSNR(ref, got *imagery.Image) (float64, error) {
	return imagery.PSNR(ref, got)
}

// WorldConfig describes one simulated deployment of the application: two
// hosts (client, server), a link, sandboxes with given resource
// allocations, and the application parameters. It is the unit the
// profiling driver executes per testbed sample and the experiments perturb
// at run time.
type WorldConfig struct {
	ClientSpeed float64 // cycles/s; default 450e6 (PII 450)
	ServerSpeed float64 // default 450e6
	ClientShare float64 // default 1.0
	ServerShare float64 // default 1.0
	Bandwidth   float64 // bytes/s; default 1e6
	Latency     time.Duration
	Loss        float64 // message loss probability per direction; default 0
	Params      Params
	Side        int // default 1024
	Levels      int // default 4
	Seeds       []int64
	Cost        CostModel
	Verify      bool
	Store       *ImageStore
}

func (c WorldConfig) withDefaults() WorldConfig {
	if c.ClientSpeed == 0 {
		c.ClientSpeed = 450e6
	}
	if c.ServerSpeed == 0 {
		c.ServerSpeed = 450e6
	}
	if c.ClientShare == 0 {
		c.ClientShare = 1.0
	}
	if c.ServerShare == 0 {
		c.ServerShare = 1.0
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 1e6
	}
	if c.Latency == 0 {
		c.Latency = 500 * time.Microsecond
	}
	if c.Side == 0 {
		c.Side = 1024
	}
	if c.Levels == 0 {
		c.Levels = 4
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1}
	}
	if c.Cost == (CostModel{}) {
		c.Cost = DefaultCostModel()
	}
	if c.Store == nil {
		c.Store = sharedStore
	}
	if c.Params.Codec == "" {
		c.Params = Params{DR: 320, Codec: "lzw", Level: c.Levels}
	}
	return c
}

// World is a constructed simulated deployment.
type World struct {
	Cfg        WorldConfig
	Sim        *vtime.Sim
	ClientHost *sandbox.Host
	ServerHost *sandbox.Host
	ClientSB   *sandbox.Sandbox
	ServerSB   *sandbox.Sandbox
	Link       *netem.Link
	Server     *Server
	Client     *Client
}

// NewWorld builds a world and spawns the server process; the caller drives
// the client (directly or via RunSequence).
func NewWorld(cfg WorldConfig, clientOpts ...ClientOption) (*World, error) {
	cfg = cfg.withDefaults()
	sim := vtime.NewSim()
	ch := sandbox.NewHost(sim, "client-host", cfg.ClientSpeed)
	sh := sandbox.NewHost(sim, "server-host", cfg.ServerSpeed)
	csb, err := ch.NewSandbox("client", cfg.ClientShare, 0)
	if err != nil {
		return nil, err
	}
	ssb, err := sh.NewSandbox("server", cfg.ServerShare, 0)
	if err != nil {
		return nil, err
	}
	link := netem.NewLink(sim, "net", cfg.Bandwidth,
		netem.WithLatency(cfg.Latency), netem.WithLoss(cfg.Loss))
	server, err := NewServer(ssb, link.B(), cfg.Side, cfg.Levels, cfg.Seeds,
		WithServerCost(cfg.Cost), WithStore(cfg.Store))
	if err != nil {
		return nil, err
	}
	opts := append([]ClientOption{WithClientCost(cfg.Cost)}, clientOpts...)
	if cfg.Verify {
		opts = append(opts, WithVerification(cfg.Store, cfg.Seeds))
	}
	client, err := NewClient(csb, link.A(), cfg.Params, opts...)
	if err != nil {
		return nil, err
	}
	w := &World{
		Cfg: cfg, Sim: sim,
		ClientHost: ch, ServerHost: sh,
		ClientSB: csb, ServerSB: ssb,
		Link: link, Server: server, Client: client,
	}
	sim.Spawn("avis-server", func(p *vtime.Proc) {
		if err := server.Run(p); err != nil {
			panic(fmt.Sprintf("avis server: %v", err))
		}
	})
	return w, nil
}

// RunSequence spawns a client process that connects, downloads n images
// (cycling through the configured seeds), and closes, then runs the
// simulation to completion and returns the per-image statistics.
func (w *World) RunSequence(n int) ([]ImageStat, error) {
	var stats []ImageStat
	var ferr error
	w.Sim.Spawn("avis-client", func(p *vtime.Proc) {
		stats, ferr = w.Client.Session(p, n)
	})
	if err := w.Sim.Run(); err != nil {
		return stats, err
	}
	return stats, ferr
}
