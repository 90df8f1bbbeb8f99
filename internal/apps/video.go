package apps

import (
	"fmt"
	"sync"
	"time"

	"tunable/internal/netem"
	"tunable/internal/perfdb"
	"tunable/internal/profiler"
	"tunable/internal/resource"
	"tunable/internal/sandbox"
	"tunable/internal/scheduler"
	"tunable/internal/spec"
	"tunable/internal/vtime"
)

// VideoSpecSource is the video stream's tunability specification — the
// motivating example from the paper's introduction ("a distributed
// application conveying a video stream ... can respond to network
// bandwidth reduction by compressing the stream or selectively dropping
// frames"), promoted to a first-class application.
const VideoSpecSource = `
app videostream;

control_parameters {
    int fps in {10, 15, 30};    // frame rate: drop frames under pressure
    enum q in {low, high};      // per-frame quality: compress harder
}

execution_env {
    host client;
    host server;
    link net from client to server;
}

qos_metric {
    scalar frame_rate maximize; // delivered frames per second
    duration lag minimize;      // stream time behind real time at the end
}

task stream {
    params { fps, q }
    uses { client.cpu, server.cpu, net.bandwidth }
    yields { frame_rate, lag }
    guard ( fps >= 10 )
}

transition {
    guard ( new.q != cur.q )
    action reencode;
}
`

// Video stream cost constants: encoded frame sizes and the processor work
// the stream charges to its sandboxes. The numbers are chosen so that on
// the harness's 450 MHz hosts both knobs bind: a high-quality 30 fps
// stream saturates a 0.05 CPU share on either end, and its wire rate
// (360 KB/s) dwarfs a low-quality 10 fps stream (40 KB/s).
const (
	videoFrameBytesHigh   = 12_000
	videoFrameBytesLow    = 4_000
	videoEncodeCyclesByte = 60    // server-side, per encoded byte
	videoDecodeCyclesByte = 40    // client-side, per encoded byte
	videoDisplayCycles    = 1.0e6 // client-side, per frame
)

// videoFrame is every frame the stream sends, sliced to its encoded size:
// the receiver reads only a message's length, so one read-only zero frame
// serves every session.
var videoFrame = make([]byte, videoFrameBytesHigh)

// videoFrameBytes returns the encoded size of one frame at quality q.
func videoFrameBytes(q string) int {
	if q == "high" {
		return videoFrameBytesHigh
	}
	return videoFrameBytesLow
}

// Video is the frame-rate/quality-adaptive streaming application.
type Video struct {
	// StreamSeconds is the virtual length of one session (default 5).
	StreamSeconds int

	once sync.Once
	db   *perfdb.DB
	err  error
}

// NewVideo returns the video application with default session length.
func NewVideo() *Video { return &Video{StreamSeconds: 5} }

// Class implements Application.
func (v *Video) Class() string { return "video" }

// videoSpec is VideoSpecSource, parsed once.
var videoSpec = spec.MustParse(VideoSpecSource)

// Spec implements Application. Every caller shares one value, so none may
// modify it.
func (v *Video) Spec() *spec.App { return videoSpec }

// DefaultConfig implements Application: a mid-rate low-quality stream
// until the tuning agent has spoken.
func (v *Video) DefaultConfig() spec.Config {
	return spec.Config{"fps": spec.Int(15), "q": spec.Enum("low")}
}

// Preferences implements Application: keep the stream inside its lag
// budget and maximize frame rate; fall back to best-effort frame rate.
func (v *Video) Preferences() []scheduler.Preference {
	return []scheduler.Preference{
		{
			Name:        "smooth",
			Constraints: []scheduler.Constraint{scheduler.AtMost("lag", 0.25)},
			Objective:   "frame_rate",
		},
		{Name: "best-effort", Objective: "frame_rate"},
	}
}

// Demand implements Application: one modest CPU slice per end. Every
// caller shares one value, so none may modify it.
func (v *Video) Demand() map[string]resource.Vector { return videoDemand }

var videoDemand = map[string]resource.Vector{"client": {resource.CPU: 0.10}, "server": {resource.CPU: 0.10}}

// LinkDemand implements Application: the per-session bandwidth
// reservation, enough for a mid-quality stream; the tuning agent plans
// the configuration that fits whatever the session actually observes.
func (v *Video) LinkDemand() float64 { return 128e3 }

// DB implements Application: profile every configuration across the
// bandwidth/CPU grid in the virtual testbed, once per process.
func (v *Video) DB() (*perfdb.DB, error) {
	v.once.Do(func() {
		db := perfdb.New(v.Spec())
		grid := resource.NewGrid(
			resource.Axis{Kind: resource.Bandwidth,
				Points: []float64{24e3, 48e3, 96e3, 192e3, 384e3}},
			resource.Axis{Kind: resource.CPU, Points: []float64{0.05, 0.10, 0.20}},
		)
		driver, err := profiler.New(db, grid, v.profileRun)
		if err != nil {
			v.err = err
			return
		}
		v.err = driver.Populate()
		v.db = db
	})
	return v.db, v.err
}

// profileRun is one testbed sample: a fixed-configuration stream in a
// fresh world at the given resources.
func (v *Video) profileRun(cfg spec.Config, res resource.Vector) (spec.Metrics, error) {
	sim := vtime.NewSim()
	share := res.Get(resource.CPU, 1.0)
	ch := sandbox.NewHost(sim, "client-host", 450e6)
	sh := sandbox.NewHost(sim, "server-host", 450e6)
	csb, err := ch.NewSandbox("client", share, 0)
	if err != nil {
		return nil, err
	}
	ssb, err := sh.NewSandbox("server", share, 0)
	if err != nil {
		return nil, err
	}
	link := netem.NewLink(sim, "net", res.Get(resource.Bandwidth, v.LinkDemand()))
	var m spec.Metrics
	sim.Spawn("video-profile", func(p *vtime.Proc) {
		m = v.stream(p, link, csb, ssb, func(*vtime.Proc) spec.Config { return cfg })
	})
	if err := sim.Run(); err != nil {
		return nil, err
	}
	return m, nil
}

// Run implements Application: an adaptive stream whose configuration
// follows the steering agent.
func (v *Video) Run(p *vtime.Proc, env *SessionEnv) (spec.Metrics, error) {
	m := v.stream(p, env.Link, env.Client, env.Server, func(p *vtime.Proc) spec.Config {
		cfg, _ := env.Steer.MaybeApply(p)
		return cfg
	})
	return m, nil
}

// stream pushes StreamSeconds of paced frames through the link, charging
// encode work to the server sandbox and decode+display work to the client
// sandbox, and measures delivered frame rate and end-of-stream lag. The
// next configuration is re-read from cfgFn before every frame, so steering
// switches take effect at frame boundaries (the application's transition
// points).
func (v *Video) stream(p *vtime.Proc, link *netem.Link, csb, ssb *sandbox.Sandbox,
	cfgFn func(*vtime.Proc) spec.Config) spec.Metrics {

	seconds := v.StreamSeconds
	if seconds <= 0 {
		seconds = 5
	}
	horizon := time.Duration(seconds) * time.Second
	start := p.Now()

	var delivered int
	var lastDone time.Duration
	done := vtime.NewChan[struct{}](p.Sim(), 1)
	p.Spawn("video-recv", func(p *vtime.Proc) {
		defer done.TrySend(struct{}{})
		for {
			msg, ok := link.B().Recv(p)
			if !ok {
				return
			}
			csb.Compute(p, float64(msg.Len())*videoDecodeCyclesByte+videoDisplayCycles)
			delivered++
			lastDone = p.Now() - start
		}
	})
	// Frames are captured on an absolute schedule — next advances by the
	// current frame interval regardless of how long the encode+send of the
	// previous frame took. When the link (or a sandbox) is slower than the
	// offered rate, the sender falls behind the schedule and the stream's
	// lag accumulates; that, not sender backpressure, is what the lag
	// metric measures and what the scheduler trades frame rate against.
	for next := time.Duration(0); next < horizon; {
		p.SleepUntil(start + next)
		cfg := cfgFn(p)
		fps, q := cfg["fps"].I, cfg["q"].S
		payload := videoFrame[:videoFrameBytes(q)]
		ssb.Compute(p, float64(len(payload))*videoEncodeCyclesByte)
		link.A().Send(p, payload)
		next += time.Second / time.Duration(fps)
	}
	link.A().Close()
	done.Recv(p)

	lag := lastDone - horizon
	if lag < 0 {
		lag = 0
	}
	return spec.Metrics{
		"frame_rate": float64(delivered) / float64(seconds),
		"lag":        lag.Seconds(),
	}
}

// Verdict implements Application: a session passes when the stream stayed
// within half a second of real time and delivered at least a watchable
// frame rate.
func (v *Video) Verdict(m spec.Metrics) QoS {
	const (
		maxLag  = 0.5
		minRate = 8.0
	)
	if lag := m["lag"]; lag > maxLag {
		return QoS{Score: m["frame_rate"], Reason: fmt.Sprintf("lag %.2fs > %.2fs", lag, maxLag)}
	}
	if fr := m["frame_rate"]; fr < minRate {
		return QoS{Score: fr, Reason: fmt.Sprintf("frame_rate %.1f < %.1f", fr, minRate)}
	}
	return QoS{Pass: true, Score: m["frame_rate"]}
}
