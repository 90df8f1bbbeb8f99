package apps_test

import (
	"fmt"
	"log"
	"time"

	"tunable/internal/apps"
	"tunable/internal/core"
	"tunable/internal/monitor"
	"tunable/internal/netem"
	"tunable/internal/resource"
	"tunable/internal/sandbox"
	"tunable/internal/scheduler"
	"tunable/internal/spec"
	"tunable/internal/steering"
	"tunable/internal/vtime"
)

// The motivating example from the paper's introduction: "a distributed
// application conveying a video stream from a server to a client machine
// can respond to network bandwidth reduction by compressing the stream or
// selectively dropping frames." The example wires the video application
// into the full adaptation loop (spec, profiled performance database,
// preferences, monitor, scheduler, steering) and watches the framework
// hold the lag budget as the link degrades mid-stream.
func ExampleVideo() {
	v := apps.NewVideo()
	v.StreamSeconds = 30

	// The performance database is profiled in the virtual testbed across
	// the app's bandwidth x CPU grid (and cached per process, so the mixed
	// harness and this example share one profiling pass).
	db, err := v.DB()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled %d configurations across the resource grid\n\n", len(db.Configs()))

	// The live world: dedicated client and server sandboxes, a shaped
	// link, and the adaptation loop from internal/core driving the
	// steering agent that the application reads at frame boundaries.
	sim := vtime.NewSim()
	clientHost := sandbox.NewHost(sim, "client-host", 450e6)
	serverHost := sandbox.NewHost(sim, "server-host", 450e6)
	csb, err := clientHost.NewSandbox("decoder", 0.2, 0)
	if err != nil {
		log.Fatal(err)
	}
	ssb, err := serverHost.NewSandbox("encoder", 0.2, 0)
	if err != nil {
		log.Fatal(err)
	}
	link := netem.NewLink(sim, "net", 800e3)

	mon := monitor.New(sim, "monitor", monitor.WithHysteresis(4))
	mon.AddProbe(monitor.NewBandwidthProbe("net", link.A()))
	mon.AddProbe(monitor.NewCPUProbe("client", csb))

	// Automatic configuration: ask the scheduler for the best starting
	// point under the initial resource conditions, and boot the steering
	// agent directly onto it.
	initialRes := resource.Vector{resource.Bandwidth: 800e3, resource.CPU: 0.2}
	sched, err := scheduler.New(v.Spec(), db, v.Preferences())
	if err != nil {
		log.Fatal(err)
	}
	d, err := sched.Select(initialRes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial configuration: %s (preference %q)\n\n", d.Config.Key(), d.PrefName)
	steer, err := steering.New(sim, v.Spec(), d.Config)
	if err != nil {
		log.Fatal(err)
	}
	steer.OnApply(func(old, cfg spec.Config) {
		fmt.Printf("          stream reconfigured: %s -> %s\n", old.Key(), cfg.Key())
	})
	fw, err := core.New(sim, core.Config{Scheduler: sched, Monitor: mon, Steering: steer})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := fw.SelectInitial(initialRes); err != nil {
		log.Fatal(err)
	}
	fw.Start()
	mon.Start()

	env := &apps.SessionEnv{
		Sim:    sim,
		Link:   link,
		Client: csb,
		Server: ssb,
		Steer:  steer,
		Seed:   1,
	}
	sim.Spawn("video-session", func(p *vtime.Proc) {
		m, err := v.Run(p, env)
		fw.Stop()
		mon.Stop()
		if err != nil {
			log.Fatal(err)
		}
		q := v.Verdict(m)
		verdict := "PASS"
		if !q.Pass {
			verdict = "FAIL (" + q.Reason + ")"
		}
		fmt.Printf("[%6.2fs] stream ended: frame_rate %.1f/s, lag %.2fs — %s\n",
			p.Now().Seconds(), m["frame_rate"], m["lag"], verdict)
	})

	sim.After(10*time.Second, func() {
		fmt.Println("[ 10.00s] *** link degrades to 96 KB/s ***")
		_ = link.SetBandwidth(96e3)
	})
	sim.After(22*time.Second, func() {
		fmt.Println("[ 22.00s] *** link restored to 800 KB/s ***")
		_ = link.SetBandwidth(800e3)
	})

	if err := sim.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nframework decision log:")
	for _, e := range fw.Events() {
		fmt.Printf("  [%6.2fs] %-11s %s\n", e.At.Seconds(), e.Kind, e.Detail())
	}
	fmt.Printf("\nframework switches: %d, final config: %s\n",
		steer.Switches(), steer.Current().Key())

	// Output:
	// profiled 3 configurations across the resource grid
	//
	// initial configuration: fps=30 (preference "smooth")
	//
	// [ 10.00s] *** link degrades to 96 KB/s ***
	//           stream reconfigured: fps=30 -> fps=15
	// [ 22.00s] *** link restored to 800 KB/s ***
	//           stream reconfigured: fps=15 -> fps=30
	// [ 30.01s] stream ended: frame_rate 24.1/s, lag 0.00s — PASS
	//
	// framework decision log:
	//   [  0.00s] decision    initial fps=30 (pref "smooth")
	//   [ 10.52s] trigger     t=10.52s estimate left the armed region: bandwidth=96000.00153600003 cpu=0.20013334514939662
	//   [ 10.52s] decision    fps=30 -> fps=15 (pref "smooth", predicted map[frame_rate:15 lag:0])
	//   [ 10.53s] switch      fps=30 -> fps=15
	//   [ 22.11s] trigger     t=22.11s estimate left the armed region: bandwidth=448000.000768 cpu=0.20010064126766414
	//   [ 22.11s] decision    fps=15 -> fps=30 (pref "smooth", predicted map[frame_rate:30 lag:0])
	//   [ 22.13s] switch      fps=15 -> fps=30
	//
	// framework switches: 2, final config: fps=30
}
