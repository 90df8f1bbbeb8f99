package core

import (
	"testing"
	"time"

	"tunable/internal/monitor"
	"tunable/internal/perfdb"
	"tunable/internal/resource"
	"tunable/internal/scheduler"
	"tunable/internal/spec"
	"tunable/internal/steering"
	"tunable/internal/vtime"
)

// testApp: one knob n∈{1,2,3}; metric t (minimize) and q (maximize).
func testApp() *spec.App {
	return spec.MustParse(`
app coretest;
control_parameters { int n in {1, 2, 3}; }
execution_env { host client; }
qos_metric {
    duration t minimize;
    scalar q maximize;
}
`)
}

// buildDB: t(n, cpu) = n / cpu, q = n. Higher n is better quality but
// slower; under a deadline on t the best feasible n shrinks as cpu drops.
func buildDB(t *testing.T, app *spec.App) *perfdb.DB {
	t.Helper()
	db := perfdb.New(app)
	for n := 1; n <= 3; n++ {
		for _, cpu := range []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0} {
			err := db.Add(spec.Config{"n": spec.Int(n)}, resource.Vector{resource.CPU: cpu},
				spec.Metrics{"t": float64(n) / cpu, "q": float64(n)})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

type rig struct {
	sim   *vtime.Sim
	fw    *Framework
	mon   *monitor.Agent
	steer *steering.Agent
	truth *float64 // ground-truth CPU share read by the oracle probe
}

// deadline is the rig's preference: the best quality that meets t ≤ 4.
var deadline = scheduler.Preference{
	Name:        "deadline",
	Constraints: []scheduler.Constraint{scheduler.AtMost("t", 4)},
	Objective:   "q",
}

func buildRig(t *testing.T) *rig {
	return newRig(t, 3, deadline)
}

// newRig builds a rig whose steering agent starts at n=n0 and whose
// framework schedules with prefs.
func newRig(t *testing.T, n0 int, prefs ...scheduler.Preference) *rig {
	t.Helper()
	app := testApp()
	db := buildDB(t, app)
	sim := vtime.NewSim()
	mon := monitor.New(sim, "mon",
		monitor.WithPeriod(10*time.Millisecond),
		monitor.WithWindow(100*time.Millisecond),
		monitor.WithHysteresis(3))
	truth := 1.0
	mon.AddProbe(&monitor.OracleProbe{K: resource.CPU,
		Fn: func(time.Duration) (float64, bool) { return truth, true }})
	steer, err := steering.New(sim, app, spec.Config{"n": spec.Int(n0)})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduler.New(app, db, prefs)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(sim, Config{Scheduler: sched, Monitor: mon, Steering: steer})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{sim: sim, fw: fw, mon: mon, steer: steer, truth: &truth}
}

// appLoop simulates the application: a loop that polls the steering agent
// at each round boundary.
func (r *rig) appLoop(t *testing.T, rounds int, roundLen time.Duration) {
	r.sim.Spawn("app", func(p *vtime.Proc) {
		for i := 0; i < rounds; i++ {
			p.Sleep(roundLen)
			r.steer.MaybeApply(p)
		}
		r.fw.Stop()
		r.mon.Stop()
	})
}

func TestInitialSelection(t *testing.T) {
	r := buildRig(t)
	d, err := r.fw.SelectInitial(resource.Vector{resource.CPU: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// At full CPU, n=3 meets t=3 ≤ 4 and maximizes q.
	if d.Config["n"].I != 3 {
		t.Fatalf("initial %s", d.Config.Key())
	}
	// At 40% CPU only n=1 (t=2.5) fits the deadline.
	d, err = r.fw.SelectInitial(resource.Vector{resource.CPU: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if d.Config["n"].I != 1 {
		t.Fatalf("initial at 0.4: %s", d.Config.Key())
	}
}

func TestAdaptsToResourceDrop(t *testing.T) {
	r := buildRig(t)
	if _, err := r.fw.SelectInitial(resource.Vector{resource.CPU: 1.0}); err != nil {
		t.Fatal(err)
	}
	r.fw.Start()
	r.mon.Start()
	r.appLoop(t, 100, 100*time.Millisecond) // 10 s of application time
	// Drop ground-truth CPU to 40% after 3 s: the deadline now requires
	// n=1 (t = 1/0.4 = 2.5 ≤ 4; n=2 gives 5 > 4).
	r.sim.After(3*time.Second, func() { *r.truth = 0.4 })
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.steer.Current()["n"].I; got != 1 {
		t.Fatalf("final config n=%d, want 1; events: %v", got, r.fw.Events())
	}
	// One direct switch, or two if the windowed estimate passed through
	// the intermediate configuration while converging — never more.
	if s := r.steer.Switches(); s < 1 || s > 2 {
		t.Fatalf("switches %d, want 1 or 2", s)
	}
	// All switching must happen shortly after the drop.
	for _, e := range r.fw.Events() {
		if e.Kind == EventSwitch {
			if e.At < 3*time.Second || e.At > 4*time.Second {
				t.Fatalf("switch at %v", e.At)
			}
		}
	}
}

func TestRecoversWhenResourcesReturn(t *testing.T) {
	r := buildRig(t)
	*r.truth = 0.4
	if _, err := r.fw.SelectInitial(resource.Vector{resource.CPU: 0.4}); err != nil {
		t.Fatal(err)
	}
	r.fw.Start()
	r.mon.Start()
	r.appLoop(t, 100, 100*time.Millisecond)
	r.sim.After(3*time.Second, func() { *r.truth = 1.0 })
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.steer.Current()["n"].I; got != 3 {
		t.Fatalf("final config n=%d, want 3 after recovery; events: %v", got, r.fw.Events())
	}
}

// A decision made on a fallback preference holds only until the primary
// preference is feasible again: when resources return, the framework
// must leave the fallback, though the fallback's own choice never stops
// winning the fallback's objective.
func TestFallbackRecoversToPrimaryPreference(t *testing.T) {
	r := newRig(t, 1, deadline, scheduler.Preference{Name: "fastest", Objective: "t"})
	*r.truth = 0.1
	// At 10 % CPU even n=1 takes 10 s, so the deadline is infeasible and
	// the fallback picks the fastest configuration, n=1.
	d, err := r.fw.SelectInitial(resource.Vector{resource.CPU: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if d.PrefName != "fastest" || d.Config["n"].I != 1 {
		t.Fatalf("initial %s on %q, want n=1 on the fallback", d.Config.Key(), d.PrefName)
	}
	r.fw.Start()
	r.mon.Start()
	r.appLoop(t, 100, 100*time.Millisecond)
	r.sim.After(3*time.Second, func() { *r.truth = 1.0 })
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.steer.Current()["n"].I; got != 3 {
		t.Fatalf("final config n=%d, want 3 on the deadline preference; events: %v", got, r.fw.Events())
	}
	for _, e := range r.fw.Events() {
		if e.Kind == EventSwitch && e.At < 3*time.Second {
			t.Fatalf("switch at %v, before the resources returned", e.At)
		}
	}
}

func TestSteadyStateNoThrashing(t *testing.T) {
	r := buildRig(t)
	if _, err := r.fw.SelectInitial(resource.Vector{resource.CPU: 1.0}); err != nil {
		t.Fatal(err)
	}
	r.fw.Start()
	r.mon.Start()
	r.appLoop(t, 50, 100*time.Millisecond)
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if r.steer.Switches() != 0 {
		t.Fatalf("%d switches under steady resources", r.steer.Switches())
	}
	if n := countEvents(r.fw, EventTrigger); n != 0 {
		t.Fatalf("%d spurious triggers", n)
	}
}

func TestNoFeasibleRetries(t *testing.T) {
	r := buildRig(t)
	if _, err := r.fw.SelectInitial(resource.Vector{resource.CPU: 1.0}); err != nil {
		t.Fatal(err)
	}
	r.fw.Start()
	r.mon.Start()
	r.appLoop(t, 300, 100*time.Millisecond) // 30 s
	// CPU collapses so far that nothing meets the deadline (n=1 at 0.1 →
	// t=10 > 4), then recovers.
	r.sim.After(3*time.Second, func() { *r.truth = 0.1 })
	r.sim.After(15*time.Second, func() { *r.truth = 1.0 })
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if countEvents(r.fw, EventNoFeasible) == 0 {
		t.Fatalf("no-feasible never logged; events: %v", r.fw.Events())
	}
	// After recovery the retry timer must re-run the scheduler and land on
	// the best configuration again.
	if got := r.steer.Current()["n"].I; got != 3 {
		t.Fatalf("final config n=%d, want 3; events: %v", got, r.fw.Events())
	}
}

func TestNewValidation(t *testing.T) {
	app := testApp()
	sim := vtime.NewSim()
	mon := monitor.New(sim, "m")
	steer, _ := steering.New(sim, app, spec.Config{"n": spec.Int(1)})
	sched, err := scheduler.New(app, buildDB(t, app), []scheduler.Preference{{Name: "p", Objective: "t"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(sim, Config{Monitor: mon, Steering: steer}); err == nil {
		t.Fatal("missing scheduler accepted")
	}
	if _, err := New(sim, Config{Scheduler: sched, Steering: steer}); err == nil {
		t.Fatal("missing monitor accepted")
	}
	if _, err := New(sim, Config{Scheduler: sched, Monitor: mon, Steering: steer}); err != nil {
		t.Fatal(err)
	}
}

func TestEventLog(t *testing.T) {
	r := buildRig(t)
	if _, err := r.fw.SelectInitial(resource.Vector{resource.CPU: 1.0}); err != nil {
		t.Fatal(err)
	}
	evs := r.fw.Events()
	if len(evs) != 1 || evs[0].Kind != EventDecision {
		t.Fatalf("events %v", evs)
	}
	if countEvents(r.fw, EventDecision) != 1 {
		t.Fatal("decision count")
	}
}

// A remote agent's observation must drive adaptation: only the remote
// agent probes the bandwidth; its peer pushes reach the main agent and
// trigger the scheduler.
func TestRemoteAgentTriggersAdaptation(t *testing.T) {
	app := spec.MustParse(`
app remote;
control_parameters { enum c in {fast, thrifty}; }
execution_env { host client; host server; link net from client to server; }
qos_metric { duration t minimize; }
`)
	db := perfdb.New(app)
	for _, bw := range []float64{50e3, 200e3, 500e3} {
		// "fast" is transfer-heavy, "thrifty" flat.
		db.Add(spec.Config{"c": spec.Enum("fast")},
			resource.Vector{resource.Bandwidth: bw}, spec.Metrics{"t": 1e6 / bw})
		db.Add(spec.Config{"c": spec.Enum("thrifty")},
			resource.Vector{resource.Bandwidth: bw}, spec.Metrics{"t": 6})
	}
	sim := vtime.NewSim()
	main := monitor.New(sim, "client-mon", monitor.WithHysteresis(2),
		monitor.WithWindow(50*time.Millisecond))
	remote := monitor.New(sim, "server-mon", monitor.WithHysteresis(2),
		monitor.WithWindow(50*time.Millisecond))
	bw := 500e3
	remote.AddProbe(&monitor.OracleProbe{K: resource.Bandwidth,
		Fn: func(time.Duration) (float64, bool) { return bw, true }})
	remote.AddPeer(main.Inbox())
	steer, err := steering.New(sim, app, spec.Config{"c": spec.Enum("fast")})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduler.New(app, db, []scheduler.Preference{{Name: "fast", Objective: "t"}})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(sim, Config{
		Scheduler:    sched,
		Monitor:      main,
		Steering:     steer,
		RemoteAgents: []*monitor.Agent{remote},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.SelectInitial(resource.Vector{resource.Bandwidth: 500e3}); err != nil {
		t.Fatal(err)
	}
	fw.Start()
	main.Start()
	remote.Start()
	sim.Spawn("app", func(p *vtime.Proc) {
		for i := 0; i < 60; i++ {
			p.Sleep(100 * time.Millisecond)
			steer.MaybeApply(p)
		}
		fw.Stop()
		main.Stop()
		remote.Stop()
	})
	sim.After(2*time.Second, func() { bw = 50e3 })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := steer.Current()["c"].S; got != "thrifty" {
		t.Fatalf("final config %s; events: %v", got, fw.Events())
	}
}

// countEvents counts the framework's logged events of one kind.
func countEvents(f *Framework, kind EventKind) int {
	n := 0
	for _, e := range f.Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}
