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

// Shared per-figure databases, built on first use.
var (
	fig5Once sync.Once
	fig5DB   *perfdb.DB
	fig5Err  error

	fig6aOnce sync.Once
	fig6aDB   *perfdb.DB
	fig6aErr  error

	fig6bOnce sync.Once
	fig6bDB   *perfdb.DB
	fig6bErr  error
)

// CPU-share and bandwidth sample points.
var (
	shareAxis = resource.Linspace(0.1, 1.0, 10)
	bwAxis    = []float64{25e3, 50e3, 100e3, 200e3, 350e3, 500e3, 750e3, 1000e3}
)

// Fig5DB: fovea sizes {80,160,320}, lzw level 4, CPU swept, bandwidth
// fixed at 500 KB/s (the Experiment 3 regime).
func Fig5DB() (*perfdb.DB, error) {
	fig5Once.Do(func() {
		grid := resource.NewGrid(
			resource.Axis{Kind: resource.CPU, Points: shareAxis},
			resource.Axis{Kind: resource.Bandwidth, Points: []float64{500e3}},
		)
		fig5DB, fig5Err = buildDB([]spec.Config{
			cfg(80, "lzw", 4), cfg(160, "lzw", 4), cfg(320, "lzw", 4),
		}, grid, 500e3)
	})
	return fig5DB, fig5Err
}

// Fig6aDB: codecs {lzw,bzw} at dR 320 level 4, bandwidth swept, CPU fixed
// at 1.0 (the Experiment 1 regime).
func Fig6aDB() (*perfdb.DB, error) {
	fig6aOnce.Do(func() {
		grid := resource.NewGrid(
			resource.Axis{Kind: resource.CPU, Points: []float64{1.0}},
			resource.Axis{Kind: resource.Bandwidth, Points: bwAxis},
		)
		fig6aDB, fig6aErr = buildDB([]spec.Config{
			cfg(320, "lzw", 4), cfg(320, "bzw", 4),
		}, grid, 500e3)
	})
	return fig6aDB, fig6aErr
}

// Fig6bDB: resolution levels {2,3,4} with bzw at dR 320, CPU swept,
// bandwidth fixed at 200 KB/s (the Experiment 2 regime).
func Fig6bDB() (*perfdb.DB, error) {
	fig6bOnce.Do(func() {
		grid := resource.NewGrid(
			resource.Axis{Kind: resource.CPU, Points: shareAxis},
			resource.Axis{Kind: resource.Bandwidth, Points: []float64{200e3}},
		)
		fig6bDB, fig6bErr = buildDB([]spec.Config{
			cfg(320, "bzw", 2), cfg(320, "bzw", 3), cfg(320, "bzw", 4),
		}, grid, 200e3)
	})
	return fig6bDB, fig6bErr
}

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

// runStatic executes n image downloads under fixed parameters; perturb may
// install timers that change resources mid-run.
func runStatic(label string, base avis.WorldConfig, n int, perturb func(*avis.World)) (RunResult, error) {
	base.Store = store
	base.Side = ImageSide
	base.Levels = Levels
	base.Seeds = expSeeds
	w, err := avis.NewWorld(base)
	if err != nil {
		return RunResult{}, err
	}
	if perturb != nil {
		perturb(w)
	}
	stats, err := w.RunSequence(n)
	if err != nil {
		return RunResult{}, err
	}
	res := RunResult{Label: label, Stats: stats, Final: w.Client.Params().Config()}
	if len(stats) > 0 {
		last := stats[len(stats)-1]
		res.Total = last.Start + last.TransmitTime
	}
	return res, nil
}

// adaptCfg carries the optional knobs of an adaptive run.
type adaptCfg struct {
	// onStat receives every completed image download together with the
	// monitor's resource snapshot and the configuration it ran under —
	// the live-telemetry ingest point (perfstore.Offer hangs off it).
	onStat func(stat avis.ImageStat, res resource.Vector, cfg spec.Config)
	// faultSched, when non-nil, is installed on the world's data link
	// through the seeded fault driver before the run starts.
	faultSched *faults.Schedule
	// modelTrigger, when non-nil, is bound (once monitor and steering
	// exist) to a function that raises a synthetic monitoring trigger if
	// the named configuration is the active one — the model-drift path:
	// a refined profile invalidating the current choice must wake the
	// scheduler just as an out-of-range resource estimate does.
	modelTrigger *func(configKey string)
}

// adaptOpt customizes runAdaptiveOpts.
type adaptOpt func(*adaptCfg)

// withOnStat registers the per-image telemetry hook.
func withOnStat(fn func(avis.ImageStat, resource.Vector, spec.Config)) adaptOpt {
	return func(c *adaptCfg) { c.onStat = fn }
}

// withFaultSchedule arms a seeded fault schedule on the data link.
func withFaultSchedule(s faults.Schedule) adaptOpt {
	return func(c *adaptCfg) { c.faultSched = &s }
}

// runAdaptiveOpts executes n image downloads under the full adaptation
// framework: monitoring agent (CPU probe on the client sandbox, bandwidth
// probe on the server's sending side), resource scheduler over db with the
// given preferences, and steering agent attached to the client. With
// distributed set, a separate agent in the server instance observes the
// network and pushes its estimates to the client's agent, as the paper's
// inter-monitor communication does, instead of one agent probing both
// components directly. db is any perfdb.Model — the offline database or a
// live perfstore.
func runAdaptiveOpts(label string, db perfdb.Model, prefs []scheduler.Preference,
	base avis.WorldConfig, n int, initRes resource.Vector, perturb func(*avis.World),
	distributed bool, opts ...adaptOpt) (RunResult, error) {

	var ac adaptCfg
	for _, o := range opts {
		o(&ac)
	}

	app := db.App()
	// Provisional scheduler pass to learn the initial configuration the
	// framework will select, so the world starts in it.
	sched0, err := scheduler.New(app, db, prefs)
	if err != nil {
		return RunResult{}, err
	}
	d0, err := sched0.Select(initRes)
	if err != nil {
		return RunResult{}, err
	}
	params, err := avis.ParamsFromConfig(d0.Config)
	if err != nil {
		return RunResult{}, err
	}
	base.Store = store
	base.Side = ImageSide
	base.Levels = Levels
	base.Seeds = expSeeds
	base.Params = params
	w, err := avis.NewWorld(base)
	if err != nil {
		return RunResult{}, err
	}
	mon := monitor.New(w.Sim, "client-monitor",
		monitor.WithPeriod(10*time.Millisecond),
		monitor.WithWindow(500*time.Millisecond),
		monitor.WithHysteresis(5))
	mon.AddProbe(monitor.NewCPUProbe("client", w.ClientSB))
	var remotes []*monitor.Agent
	if distributed {
		srvMon := monitor.New(w.Sim, "server-monitor",
			monitor.WithPeriod(10*time.Millisecond),
			monitor.WithWindow(500*time.Millisecond),
			monitor.WithHysteresis(5))
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
	if ac.modelTrigger != nil {
		sim := w.Sim
		*ac.modelTrigger = func(configKey string) {
			if steer.Current().Key() != configKey {
				return
			}
			mon.Triggers().TrySend(monitor.Trigger{
				At:        sim.Now(),
				Component: "model",
				Kind:      resource.Kind("drift"),
			})
		}
	}
	fw, err := core.New(w.Sim, core.Config{
		App:          app,
		DB:           db,
		Preferences:  prefs,
		Monitor:      mon,
		Steering:     steer,
		Components:   core.Components{resource.CPU: "client", resource.Bandwidth: "net"},
		RemoteAgents: remotes,
	})
	if err != nil {
		return RunResult{}, err
	}
	if _, err := fw.SelectInitial(initRes); err != nil {
		return RunResult{}, err
	}
	if perturb != nil {
		perturb(w)
	}
	if ac.faultSched != nil {
		drv, err := faults.NewDriver(w.Sim, map[string]*netem.Link{"data:avis": w.Link}, *ac.faultSched)
		if err != nil {
			return RunResult{}, err
		}
		drv.Install()
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
			if ac.onStat != nil {
				ac.onStat(st, mon.Snapshot(), steer.Current())
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
	res := RunResult{
		Label:    label,
		Stats:    stats,
		Switches: steer.Switches(),
		Events:   fw.Events(),
		Final:    steer.Current(),
	}
	if len(stats) > 0 {
		last := stats[len(stats)-1]
		res.Total = last.Start + last.TransmitTime
	}
	return res, nil
}

func seconds(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }
