package core_test

import (
	"fmt"
	"log"
	"time"

	"tunable/internal/core"
	"tunable/internal/monitor"
	"tunable/internal/perfdb"
	"tunable/internal/resource"
	"tunable/internal/sandbox"
	"tunable/internal/scheduler"
	"tunable/internal/spec"
	"tunable/internal/steering"
	"tunable/internal/vtime"
)

// The adaptation framework end to end. A toy "renderer" application has
// one knob, its quality level n, and one QoS metric, the time to render a
// batch (t = n/cpu seconds). The user wants the highest quality whose
// batch time stays under 4 s. The example declares the tunability spec,
// fills the performance database analytically, wires up the monitoring
// agent, scheduler and steering agent, and watches the framework downgrade
// quality when the CPU share drops and restore it when the share recovers.
func Example() {
	// 1. The tunability specification, in the paper's annotation language.
	app := spec.MustParse(`
app renderer;
control_parameters { int n in {1, 2, 3}; }
execution_env { host client; }
qos_metric {
    duration batch_time minimize;
    scalar quality maximize;
}
`)

	// 2. The performance database. Real applications profile themselves in
	// the virtual testbed (see cmd/avis-profile); this toy's behaviour is
	// analytic: a batch at quality n under CPU share s takes n/s seconds.
	db := perfdb.New(app)
	for n := 1; n <= 3; n++ {
		for _, cpu := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
			err := db.Add(spec.Config{"n": spec.Int(n)},
				resource.Vector{resource.CPU: cpu},
				spec.Metrics{"batch_time": float64(n) / cpu, "quality": float64(n)})
			if err != nil {
				log.Fatal(err)
			}
		}
	}

	// 3. A simulated world: one host, one sandboxed application.
	sim := vtime.NewSim()
	host := sandbox.NewHost(sim, "client", 100e6)
	sb, err := host.NewSandbox("renderer", 1.0, 0)
	if err != nil {
		log.Fatal(err)
	}

	// 4. The run-time subsystem: a scheduler over the database and the
	// user's preference, a monitor, and a steering agent.
	sched, err := scheduler.New(app, db, []scheduler.Preference{{
		Name:        "smooth",
		Constraints: []scheduler.Constraint{scheduler.AtMost("batch_time", 4)},
		Objective:   "quality",
	}})
	if err != nil {
		log.Fatal(err)
	}
	mon := monitor.New(sim, "monitor")
	mon.AddProbe(monitor.NewCPUProbe("client", sb))
	steer, err := steering.New(sim, app, spec.Config{"n": spec.Int(3)})
	if err != nil {
		log.Fatal(err)
	}
	fw, err := core.New(sim, core.Config{Scheduler: sched, Monitor: mon, Steering: steer})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := fw.SelectInitial(resource.Vector{resource.CPU: 1.0}); err != nil {
		log.Fatal(err)
	}
	fw.Start()
	mon.Start()

	// 5. The application loop: render batches, poll the steering agent at
	// each batch boundary (the transition point).
	sim.Spawn("renderer", func(p *vtime.Proc) {
		for batch := 0; batch < 12; batch++ {
			cfg, switched := steer.MaybeApply(p)
			if switched {
				fmt.Printf("[%6.2fs] steering applied: quality -> %s\n",
					p.Now().Seconds(), cfg.Key())
			}
			n := cfg["n"].I
			start := p.Now()
			sb.Compute(p, float64(n)*100e6) // n CPU-seconds of work
			fmt.Printf("[%6.2fs] batch %2d at quality %d took %.2fs\n",
				p.Now().Seconds(), batch, n, (p.Now() - start).Seconds())
		}
		fw.Stop()
		mon.Stop()
	})

	// 6. Perturb the world: the CPU share collapses at t=8 s and recovers
	// at t=20 s.
	sim.After(8*time.Second, func() {
		fmt.Println("[  8.00s] *** CPU share drops to 40% ***")
		_ = sb.SetCPUShare(0.4)
	})
	sim.After(20*time.Second, func() {
		fmt.Println("[ 20.00s] *** CPU share restored to 100% ***")
		_ = sb.SetCPUShare(1.0)
	})

	if err := sim.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nframework made %d configuration switches; final config: %s\n",
		steer.Switches(), steer.Current().Key())

	// Output:
	// [  3.09s] batch  0 at quality 3 took 3.09s
	// [  6.19s] batch  1 at quality 3 took 3.09s
	// [  8.00s] *** CPU share drops to 40% ***
	// [ 11.10s] batch  2 at quality 3 took 4.91s
	// [ 11.10s] steering applied: quality -> n=1
	// [ 13.59s] batch  3 at quality 1 took 2.50s
	// [ 16.09s] batch  4 at quality 1 took 2.50s
	// [ 18.59s] batch  5 at quality 1 took 2.50s
	// [ 20.00s] *** CPU share restored to 100% ***
	// [ 20.45s] batch  6 at quality 1 took 1.86s
	// [ 20.45s] steering applied: quality -> n=3
	// [ 23.55s] batch  7 at quality 3 took 3.09s
	// [ 26.64s] batch  8 at quality 3 took 3.09s
	// [ 29.73s] batch  9 at quality 3 took 3.09s
	// [ 32.83s] batch 10 at quality 3 took 3.09s
	// [ 35.92s] batch 11 at quality 3 took 3.09s
	//
	// framework made 2 configuration switches; final config: n=3
}
