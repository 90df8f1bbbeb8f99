// Package expt reproduces every figure of the paper's evaluation:
//
//	Figure 3(a)  sandbox CPU-share step response
//	Figure 3(b)  measured vs expected runtime across shares
//	Figure 4(a)  testbed emulation of slower machines, simple app
//	Figure 4(b)  testbed emulation of slower machines, visualization app
//	Figure 5     transmission/response time vs CPU share per fovea size
//	Figure 6(a)  transmission time vs bandwidth per compression method
//	Figure 6(b)  transmission time vs CPU share per resolution level
//	Figure 7(a)  Experiment 1: codec adaptation to a bandwidth drop
//	Figure 7(b)  Experiment 2: resolution adaptation to a CPU drop
//	Figure 7(c,d) Experiment 3: fovea adaptation to a CPU drop
//
// Each figure function builds its world(s), runs them on the virtual-time
// kernel, and returns both a structured result and a renderable table so
// the cmd/avis-figures tool and the benchmark harness can print the same
// rows the paper plots. Performance databases are built once per process
// through the profiling driver and shared.
package expt

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"tunable/internal/avis"
	"tunable/internal/core"
	"tunable/internal/faults"
	"tunable/internal/monitor"
	"tunable/internal/netem"
	"tunable/internal/perfdb"
	"tunable/internal/profiler"
	"tunable/internal/resource"
	"tunable/internal/sandbox"
	"tunable/internal/scheduler"
	"tunable/internal/spec"
	"tunable/internal/steering"
	"tunable/internal/trace"
	"tunable/internal/vtime"
)

// Fixed world parameters shared by the application experiments.
const (
	// ImageSide is the full-resolution image side (the paper's image
	// corpus is emulated at 1024², roughly a quarter of the data volume
	// implied by the paper's timings; EXPERIMENTS.md records the rescale).
	ImageSide = 1024
	// Levels is the wavelet decomposition depth; resolution levels 2–4
	// correspond to 256², 512², and 1024².
	Levels = 4
	// NumImages is the download count of the Section 7 experiments.
	NumImages = 10
)

// Seeds for the experiment image set (three distinct images cycled).
var expSeeds = []int64{1, 2, 3}

// store caches pyramids, and the encoded replies cut from them, across all
// experiments in the process.
var store = avis.NewImageStore()

// EncodedStats reports how many region requests the experiments' simulated
// servers have answered in this process and how many replies had to be
// extracted and compressed for them — the rest were already encoded for an
// earlier world of a sweep.
func EncodedStats() avis.EncodedStats { return store.EncodedStats() }

// FigResult is one reproduced figure.
type FigResult struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Rec     *trace.Recorder // time series, when the figure is a timeline
	Notes   []string
}

// Render writes the figure as text.
func (f *FigResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title); err != nil {
		return err
	}
	if len(f.Headers) > 0 {
		if _, err := fmt.Fprintln(w, strings.Join(f.Headers, "\t")); err != nil {
			return err
		}
		for _, row := range f.Rows {
			if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
				return err
			}
		}
	}
	if f.Rec != nil {
		if err := f.Rec.WriteTable(w); err != nil {
			return err
		}
	}
	for _, n := range f.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// AvisRunFunc exposes the profiling RunFunc used to build the figure
// databases, for tools (cmd/avis-profile) that drive additional sweeps or
// sensitivity refinement.
func AvisRunFunc(bandwidthIfUnswept float64) profiler.RunFunc {
	return avisRun(bandwidthIfUnswept)
}

// avisRun builds the profiling RunFunc: one testbed sample = one image
// download in a fresh world under the given configuration and resources.
func avisRun(bandwidthIfUnswept float64) profiler.RunFunc {
	return func(cfg spec.Config, res resource.Vector) (spec.Metrics, error) {
		params, err := avis.ParamsFromConfig(cfg)
		if err != nil {
			return nil, err
		}
		bw := res.Get(resource.Bandwidth, bandwidthIfUnswept)
		share := res.Get(resource.CPU, 1.0)
		w, err := avis.NewWorld(avis.WorldConfig{
			Side:        ImageSide,
			Levels:      Levels,
			Seeds:       []int64{1},
			Store:       store,
			Bandwidth:   bw,
			ClientShare: share,
			Params:      params,
		})
		if err != nil {
			return nil, err
		}
		stats, err := w.RunSequence(1)
		if err != nil {
			return nil, err
		}
		return stats[0].Metrics(), nil
	}
}

// buildDB populates a database for the given configurations over a grid.
func buildDB(cfgs []spec.Config, grid *resource.Grid, defaultBW float64) (*perfdb.DB, error) {
	db := perfdb.New(avis.Spec())
	d, err := profiler.New(db, grid, avisRun(defaultBW), profiler.WithConfigs(cfgs))
	if err != nil {
		return nil, err
	}
	if err := d.Populate(); err != nil {
		return nil, err
	}
	return db, nil
}

func cfg(dr int, codec string, level int) spec.Config {
	return avis.Params{DR: dr, Codec: codec, Level: level}.Config()
}

// CPU-share and bandwidth sample points.
var (
	shareAxis = resource.Linspace(0.1, 1.0, 10)
	bwAxis    = []float64{25e3, 50e3, 100e3, 200e3, 350e3, 500e3, 750e3, 1000e3}
)

// Shared per-figure databases, each built on first use.
var (
	fig5DB = sync.OnceValues(func() (*perfdb.DB, error) {
		grid := resource.NewGrid(
			resource.Axis{Kind: resource.CPU, Points: shareAxis},
			resource.Axis{Kind: resource.Bandwidth, Points: []float64{500e3}},
		)
		return buildDB([]spec.Config{
			cfg(80, "lzw", 4), cfg(160, "lzw", 4), cfg(320, "lzw", 4),
		}, grid, 500e3)
	})
	fig6aDB = sync.OnceValues(func() (*perfdb.DB, error) {
		grid := resource.NewGrid(
			resource.Axis{Kind: resource.CPU, Points: []float64{1.0}},
			resource.Axis{Kind: resource.Bandwidth, Points: bwAxis},
		)
		return buildDB([]spec.Config{
			cfg(320, "lzw", 4), cfg(320, "bzw", 4),
		}, grid, 500e3)
	})
	fig6bDB = sync.OnceValues(func() (*perfdb.DB, error) {
		grid := resource.NewGrid(
			resource.Axis{Kind: resource.CPU, Points: shareAxis},
			resource.Axis{Kind: resource.Bandwidth, Points: []float64{200e3}},
		)
		return buildDB([]spec.Config{
			cfg(320, "bzw", 2), cfg(320, "bzw", 3), cfg(320, "bzw", 4),
		}, grid, 200e3)
	})
)

// Fig5DB: fovea sizes {80,160,320}, lzw level 4, CPU swept, bandwidth
// fixed at 500 KB/s (the Experiment 3 regime).
func Fig5DB() (*perfdb.DB, error) { return fig5DB() }

// Fig6aDB: codecs {lzw,bzw} at dR 320 level 4, bandwidth swept, CPU fixed
// at 1.0 (the Experiment 1 regime).
func Fig6aDB() (*perfdb.DB, error) { return fig6aDB() }

// Fig6bDB: resolution levels {2,3,4} with bzw at dR 320, CPU swept,
// bandwidth fixed at 200 KB/s (the Experiment 2 regime).
func Fig6bDB() (*perfdb.DB, error) { return fig6bDB() }

// RunResult is the outcome of one timeline run (adaptive or static).
type RunResult struct {
	Label    string
	Stats    []avis.ImageStat
	Total    time.Duration
	Switches int64
	Events   []core.Event
	Final    spec.Config
}

// completionSeries renders per-image transmission times against their
// completion instants.
func (r RunResult) completionSeries(rec *trace.Recorder, metric string) {
	s := rec.Series(r.Label, "s")
	for _, st := range r.Stats {
		switch metric {
		case "transmit_time":
			s.Add(st.Start+st.TransmitTime, st.TransmitTime.Seconds())
		case "response_time":
			s.Add(st.Start+st.TransmitTime, st.AvgResponse.Seconds())
		}
	}
}

// scenario is one run-time experiment as data: the world it starts in,
// the schedule that perturbs it mid-run, the model and preferences the
// adaptive run schedules with, and the configurations its two static
// baselines hold.
type scenario struct {
	db    func() (*perfdb.DB, error)
	prefs []scheduler.Preference
	// base carries the starting resources (Bandwidth, ClientShare); the
	// adaptive run's initial selection is made for exactly these.
	base    avis.WorldConfig
	sched   faults.Schedule
	statics [2]baseline
	// distributed moves the bandwidth probe into a separate agent in the
	// server instance that pushes its estimates to the client's agent, as
	// the paper's inter-monitor communication does, instead of one agent
	// probing both components directly.
	distributed bool
	// onStat receives every completed image download together with the
	// monitor's resource snapshot and the configuration it ran under —
	// the live-telemetry ingest point (perfstore.Offer hangs off it).
	onStat func(stat avis.ImageStat, res resource.Vector, cfg spec.Config)
	// modelTrigger, when non-nil, is bound (once monitor and steering
	// exist) to a function that raises a synthetic monitoring trigger if
	// the named configuration is the active one — the model-drift path:
	// a refined profile (delta is its relative move) may change the
	// scheduler's choice at an estimate that has not moved, so it must
	// wake the scheduler just as leaving the armed region does.
	modelTrigger *func(configKey string, delta float64)
}

// baseline is a static run: one configuration held throughout.
type baseline struct {
	label  string
	params avis.Params
}

// loopMonitor is the monitoring agents' setting in every adaptive run.
var loopMonitor = []monitor.Option{
	monitor.WithPeriod(10 * time.Millisecond),
	monitor.WithWindow(500 * time.Millisecond),
	monitor.WithHysteresis(5),
}

// newWorld builds an experiment world from base and arms sched on it: link
// events on the data link, CPU events on the client sandbox.
func newWorld(base avis.WorldConfig, sched faults.Schedule) (*avis.World, error) {
	base.Store = store
	base.Side = ImageSide
	base.Levels = Levels
	base.Seeds = expSeeds
	w, err := avis.NewWorld(base)
	if err != nil {
		return nil, err
	}
	drv, err := faults.NewDriver(w.Sim, map[string]*netem.Link{"data:avis": w.Link},
		map[string]*sandbox.Sandbox{"client": w.ClientSB}, sched)
	if err != nil {
		return nil, err
	}
	drv.Install()
	return w, nil
}

// runStatic executes n image downloads of the scenario holding b's
// configuration throughout.
func runStatic(sc scenario, b baseline, n int) (RunResult, error) {
	base := sc.base
	base.Params = b.params
	w, err := newWorld(base, sc.sched)
	if err != nil {
		return RunResult{}, err
	}
	stats, err := w.RunSequence(n)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{Label: b.label, Stats: stats, Total: finish(stats), Final: w.Client.Params().Config()}, nil
}

// finish is the instant the last of stats completed.
func finish(stats []avis.ImageStat) time.Duration {
	if len(stats) == 0 {
		return 0
	}
	last := stats[len(stats)-1]
	return last.Start + last.TransmitTime
}

// runAdaptive executes n image downloads of the scenario under the full
// adaptation framework: monitoring agent (CPU probe on the client sandbox,
// bandwidth probe on the server's sending side), resource scheduler over
// db with the scenario's preferences, and steering agent attached to the
// client. db is any perfdb.Model — the offline database or a live
// perfstore.
func runAdaptive(label string, db perfdb.Model, sc scenario, n int) (RunResult, error) {
	app := db.App()
	initRes := resource.Vector{resource.CPU: sc.base.ClientShare, resource.Bandwidth: sc.base.Bandwidth}
	// The framework's scheduler, asked first for the initial configuration
	// the framework will select, so the world starts in it.
	sched, err := scheduler.New(app, db, sc.prefs)
	if err != nil {
		return RunResult{}, err
	}
	d0, err := sched.Select(initRes)
	if err != nil {
		return RunResult{}, err
	}
	base := sc.base
	if base.Params, err = avis.ParamsFromConfig(d0.Config); err != nil {
		return RunResult{}, err
	}
	w, err := newWorld(base, sc.sched)
	if err != nil {
		return RunResult{}, err
	}
	mon := monitor.New(w.Sim, "client-monitor", loopMonitor...)
	mon.AddProbe(monitor.NewCPUProbe("client", w.ClientSB))
	var remotes []*monitor.Agent
	if sc.distributed {
		srvMon := monitor.New(w.Sim, "server-monitor", loopMonitor...)
		srvMon.AddProbe(monitor.NewBandwidthProbe("net", w.Link.B()))
		srvMon.AddPeer(mon.Inbox())
		remotes = append(remotes, srvMon)
	} else {
		mon.AddProbe(monitor.NewBandwidthProbe("net", w.Link.B()))
	}
	steer, err := steering.New(w.Sim, app, d0.Config)
	if err != nil {
		return RunResult{}, err
	}
	w.Client.AttachSteering(steer)
	if sc.modelTrigger != nil {
		sim := w.Sim
		*sc.modelTrigger = func(configKey string, delta float64) {
			if steer.Current().Key() != configKey {
				return
			}
			mon.Triggers().TrySend(monitor.Trigger{
				At:       sim.Now(),
				Estimate: mon.Snapshot(),
				Reason:   fmt.Sprintf("model drift: the active profile %s moved by %.2g", configKey, delta),
			})
		}
	}
	fw, err := core.New(w.Sim, core.Config{
		Scheduler:    sched,
		Monitor:      mon,
		Steering:     steer,
		RemoteAgents: remotes,
	})
	if err != nil {
		return RunResult{}, err
	}
	if _, err := fw.SelectInitial(initRes); err != nil {
		return RunResult{}, err
	}
	fw.Start()
	mon.Start()
	for _, rm := range remotes {
		rm.Start()
	}
	var stats []avis.ImageStat
	var ferr error
	w.Sim.Spawn("avis-client", func(p *vtime.Proc) {
		defer func() {
			fw.Stop()
			mon.Stop()
			for _, rm := range remotes {
				rm.Stop()
			}
		}()
		if ferr = w.Client.Connect(p); ferr != nil {
			return
		}
		for i := 0; i < n; i++ {
			st, err := w.Client.FetchImage(p, i%len(expSeeds))
			if err != nil {
				ferr = err
				return
			}
			stats = append(stats, st)
			if sc.onStat != nil {
				sc.onStat(st, mon.Snapshot(), steer.Current())
			}
		}
		w.Client.Close(p)
	})
	if err := w.Sim.Run(); err != nil {
		return RunResult{}, err
	}
	if ferr != nil {
		return RunResult{}, ferr
	}
	return RunResult{
		Label:    label,
		Stats:    stats,
		Total:    finish(stats),
		Switches: steer.Switches(),
		Events:   fw.Events(),
		Final:    steer.Current(),
	}, nil
}

func seconds(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }
