package apps

import (
	"fmt"
	"sync"
	"time"

	"tunable/internal/avis"
	"tunable/internal/perfdb"
	"tunable/internal/profiler"
	"tunable/internal/resource"
	"tunable/internal/scheduler"
	"tunable/internal/spec"
	"tunable/internal/vtime"
)

// Foveal promotes the paper's active visualization session (internal/avis)
// into the workload layer: each session connects a real avis client to a
// real avis server over the session's link, downloads Images foveally
// grown images through the real wavelet/compression pipeline, and is
// judged against the paper's Experiment 2/3 service bounds.
type Foveal struct {
	// Images is the number of images fetched per session (default 2).
	Images int
	// Side and Levels size the pyramid (defaults 256 and 4 — small enough
	// that profiling the class stays cheap, large enough that all three
	// control parameters bind).
	Side, Levels int

	storeOnce sync.Once
	store     *avis.ImageStore

	once sync.Once
	db   *perfdb.DB
	err  error
}

// NewFoveal returns the foveal application with default session shape.
func NewFoveal() *Foveal { return &Foveal{Images: 2, Side: 256, Levels: 4} }

// Class implements Application.
func (f *Foveal) Class() string { return "foveal" }

// Spec implements Application.
func (f *Foveal) Spec() *spec.App { return avis.Spec() }

// DefaultConfig implements Application: the configuration a session starts
// in before its tuning agent has spoken.
func (f *Foveal) DefaultConfig() spec.Config {
	return avis.Params{DR: 160, Codec: "lzw", Level: 3}.Config()
}

// Preferences implements Application, mirroring the paper's experiments:
// keep rounds interactive (Experiment 3's 1 s response bound) at the best
// resolution, then keep whole images inside Experiment 2's 10 s deadline,
// then just finish as fast as possible.
func (f *Foveal) Preferences() []scheduler.Preference {
	return []scheduler.Preference{
		{
			Name: "interactive",
			Constraints: []scheduler.Constraint{
				scheduler.AtMost("response_time", 1.0),
				scheduler.AtMost("transmit_time", 10.0),
			},
			Objective: "resolution",
		},
		{
			Name:        "deadline",
			Constraints: []scheduler.Constraint{scheduler.AtMost("transmit_time", 10.0)},
			Objective:   "resolution",
		},
		{Name: "best-effort", Objective: "transmit_time"},
	}
}

// Demand implements Application: the foveal client decodes and displays
// (the dominant cost), the server extracts and encodes. Every caller
// shares one value, so none may modify it.
func (f *Foveal) Demand() map[string]resource.Vector { return fovealDemand }

var fovealDemand = map[string]resource.Vector{"client": {resource.CPU: 0.15}, "server": {resource.CPU: 0.10}}

// LinkDemand implements Application: per-session link reservation.
func (f *Foveal) LinkDemand() float64 { return 192e3 }

func (f *Foveal) side() int {
	if f.Side > 0 {
		return f.Side
	}
	return 256
}

func (f *Foveal) levels() int {
	if f.Levels > 0 {
		return f.Levels
	}
	return 4
}

func (f *Foveal) images() int {
	if f.Images > 0 {
		return f.Images
	}
	return 2
}

// seeds returns the image seeds; one image, shared by every session
// through the single-flight store.
func (f *Foveal) seeds() []int64 { return []int64{11} }

// imageStore returns the class-wide image store so the pyramid is built
// once per process, not once per session or per profiling sample.
func (f *Foveal) imageStore() *avis.ImageStore {
	f.storeOnce.Do(func() { f.store = avis.NewImageStore() })
	return f.store
}

// profileConfigs is the candidate set profiled for the class: both codecs
// at every level, small and large fovea increments.
func (f *Foveal) profileConfigs() []spec.Config {
	var cfgs []spec.Config
	for _, dr := range []int{80, 320} {
		for _, c := range []string{"lzw", "bzw"} {
			for _, l := range []int{2, 3, 4} {
				cfgs = append(cfgs, avis.Params{DR: dr, Codec: c, Level: l}.Config())
			}
		}
	}
	return cfgs
}

// DB implements Application: profile the candidate configurations over a
// bandwidth/CPU grid spanning the arbiter's per-session operating range,
// once per process.
func (f *Foveal) DB() (*perfdb.DB, error) {
	f.once.Do(func() {
		db := perfdb.New(f.Spec())
		grid := resource.NewGrid(
			resource.Axis{Kind: resource.Bandwidth,
				Points: []float64{24e3, 96e3, 192e3, 384e3}},
			resource.Axis{Kind: resource.CPU, Points: []float64{0.05, 0.10, 0.20}},
		)
		driver, err := profiler.New(db, grid, f.profileRun,
			profiler.WithConfigs(f.profileConfigs()))
		if err != nil {
			f.err = err
			return
		}
		f.err = driver.Populate()
		f.db = db
	})
	return f.db, f.err
}

// profileRun is one testbed sample: one image download in a fresh world at
// the given configuration and resources.
func (f *Foveal) profileRun(cfg spec.Config, res resource.Vector) (spec.Metrics, error) {
	params, err := avis.ParamsFromConfig(cfg)
	if err != nil {
		return nil, err
	}
	w, err := avis.NewWorld(avis.WorldConfig{
		Bandwidth:   res.Get(resource.Bandwidth, f.LinkDemand()),
		ClientShare: res.Get(resource.CPU, 1.0),
		ServerShare: res.Get(resource.CPU, 1.0),
		Params:      params,
		Side:        f.side(),
		Levels:      f.levels(),
		Seeds:       f.seeds(),
		Store:       f.imageStore(),
	})
	if err != nil {
		return nil, err
	}
	stats, err := w.RunSequence(1)
	if err != nil {
		return nil, err
	}
	if len(stats) == 0 {
		return nil, fmt.Errorf("apps: foveal profiling produced no stats")
	}
	return stats[0].Metrics(), nil
}

// Run implements Application: one interactive session — a real avis
// server and client on the admitted sandboxes, steered at round
// boundaries by the class's tuning agent.
func (f *Foveal) Run(p *vtime.Proc, env *SessionEnv) (spec.Metrics, error) {
	params, err := avis.ParamsFromConfig(env.Steer.Current())
	if err != nil {
		return nil, err
	}
	srv, err := avis.NewServer(env.Server, env.Link.B(), f.side(), f.levels(), f.seeds(),
		avis.WithStore(f.imageStore()))
	if err != nil {
		return nil, err
	}
	srvDone := vtime.NewChan[error](p.Sim(), 1)
	p.Spawn("foveal-server", func(sp *vtime.Proc) {
		srvDone.TrySend(srv.Run(sp))
	})
	cl, err := avis.NewClient(env.Client, env.Link.A(), params)
	if err != nil {
		return nil, err
	}
	cl.AttachSteering(env.Steer)
	stats, err := cl.Session(p, f.images())
	if err != nil {
		return nil, err
	}
	if srvErr, ok := srvDone.Recv(p); ok && srvErr != nil {
		return nil, fmt.Errorf("apps: foveal server: %w", srvErr)
	}

	// Aggregate per-image stats into the session's QoS metrics: worst
	// transmit time (the deadline is per image), mean response time, and
	// the resolution of the last image (where steering has settled).
	var worstTransmit time.Duration
	var responses []time.Duration
	for _, st := range stats {
		if st.TransmitTime > worstTransmit {
			worstTransmit = st.TransmitTime
		}
		responses = append(responses, st.AvgResponse)
	}
	return spec.Metrics{
		"transmit_time": worstTransmit.Seconds(),
		"response_time": meanDuration(responses).Seconds(),
		"resolution":    float64(stats[len(stats)-1].Level),
	}, nil
}

// Verdict implements Application: the session passes when rounds stayed
// interactive (Experiment 3's 1 s bound) and every image met Experiment
// 2's 10 s deadline; the score is the delivered resolution level.
func (f *Foveal) Verdict(m spec.Metrics) QoS {
	const (
		maxResponse = 1.0
		maxTransmit = 10.0
	)
	if rt := m["response_time"]; rt > maxResponse {
		return QoS{Score: m["resolution"], Reason: fmt.Sprintf("response_time %.2fs > %.2fs", rt, maxResponse)}
	}
	if tt := m["transmit_time"]; tt > maxTransmit {
		return QoS{Score: m["resolution"], Reason: fmt.Sprintf("transmit_time %.2fs > %.2fs", tt, maxTransmit)}
	}
	return QoS{Pass: true, Score: m["resolution"]}
}
