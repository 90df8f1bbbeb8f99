package apps

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"tunable/internal/core"
	"tunable/internal/netem"
	"tunable/internal/perfdb"
	"tunable/internal/resource"
	"tunable/internal/scheduler"
	"tunable/internal/spec"
	"tunable/internal/steering"
	"tunable/internal/vtime"
)

// TestPromotedSpecsRoundTrip: both promoted application specs survive a
// parse → format → parse round trip with structure intact.
func TestPromotedSpecsRoundTrip(t *testing.T) {
	for _, app := range []Application{NewVideo(), NewFoveal()} {
		a := app.Spec()
		formatted := a.Format()
		b, err := spec.Parse(formatted)
		if err != nil {
			t.Fatalf("%s: reparsing formatted spec: %v\n%s", app.Class(), err, formatted)
		}
		if got := b.Format(); got != formatted {
			t.Errorf("%s: format not a fixed point:\nfirst:\n%s\nsecond:\n%s", app.Class(), formatted, got)
		}
		if a.Name != b.Name {
			t.Errorf("%s: app name %q -> %q", app.Class(), a.Name, b.Name)
		}
		if len(a.Params) != len(b.Params) {
			t.Errorf("%s: %d params -> %d", app.Class(), len(a.Params), len(b.Params))
		}
		if len(a.Metrics) != len(b.Metrics) {
			t.Errorf("%s: %d metrics -> %d", app.Class(), len(a.Metrics), len(b.Metrics))
		}
		if len(a.Tasks) != len(b.Tasks) {
			t.Errorf("%s: %d tasks -> %d", app.Class(), len(a.Tasks), len(b.Tasks))
		}
		if len(a.Transitions) != len(b.Transitions) {
			t.Errorf("%s: %d transitions -> %d", app.Class(), len(a.Transitions), len(b.Transitions))
		}
		// The declared default configuration must validate against its
		// own spec — the harness starts every session there.
		if err := a.ValidateConfig(app.DefaultConfig()); err != nil {
			t.Errorf("%s: default config invalid: %v", app.Class(), err)
		}
	}
}

func TestVideoVerdict(t *testing.T) {
	v := NewVideo()
	cases := []struct {
		m    spec.Metrics
		pass bool
	}{
		{spec.Metrics{"frame_rate": 15, "lag": 0.1}, true},
		{spec.Metrics{"frame_rate": 15, "lag": 0.9}, false},
		{spec.Metrics{"frame_rate": 5, "lag": 0.1}, false},
	}
	for i, c := range cases {
		if got := v.Verdict(c.m); got.Pass != c.pass {
			t.Errorf("case %d: pass = %v, want %v (%s)", i, got.Pass, c.pass, got.Reason)
		}
	}
	if q := v.Verdict(spec.Metrics{"frame_rate": 15, "lag": 0.9}); q.Reason == "" {
		t.Error("failing verdict carries no reason")
	}
}

func TestFovealVerdict(t *testing.T) {
	f := NewFoveal()
	cases := []struct {
		m    spec.Metrics
		pass bool
	}{
		{spec.Metrics{"transmit_time": 5, "response_time": 0.5, "resolution": 4}, true},
		{spec.Metrics{"transmit_time": 12, "response_time": 0.5, "resolution": 4}, false},
		{spec.Metrics{"transmit_time": 5, "response_time": 1.5, "resolution": 4}, false},
	}
	for i, c := range cases {
		if got := f.Verdict(c.m); got.Pass != c.pass {
			t.Errorf("case %d: pass = %v, want %v (%s)", i, got.Pass, c.pass, got.Reason)
		}
	}
}

func TestValidateMetrics(t *testing.T) {
	v := NewVideo()
	if err := validateMetrics(v, spec.Metrics{"frame_rate": 1, "lag": 0}); err != nil {
		t.Errorf("declared metrics rejected: %v", err)
	}
	if err := validateMetrics(v, spec.Metrics{"frame_rate": 1}); err == nil {
		t.Error("missing declared metric accepted")
	}
	if err := validateMetrics(v, spec.Metrics{"frame_rate": 1, "lag": 0, "bogus": 3}); err == nil {
		t.Error("undeclared metric accepted")
	}
}

// TestMixVideoCannotStarveFoveal floods the pool with video sessions and
// checks the arbitration guarantee end to end: every foveal session whose
// demand fits the class guarantee is admitted and completes, no matter how
// greedy the video class is.
func TestMixVideoCannotStarveFoveal(t *testing.T) {
	rep, err := RunMix(HarnessConfig{
		Seed:  3,
		Hosts: 8,
		// Pool 1.6 MB/s, equal weights: foveal is guaranteed 800 KB/s —
		// room for its 4 sessions at 192 KB/s each. Video requests 16
		// sessions at 128 KB/s = 2 MB/s, more than the whole pool.
		LinkPool: 1.6e6,
		Classes: []ClassConfig{
			{App: NewVideo(), Sessions: 16, ArrivalEvery: 100 * time.Millisecond},
			{App: NewFoveal(), Sessions: 4, ArrivalEvery: 400 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var video, foveal *ClassReport
	for i := range rep.Classes {
		switch rep.Classes[i].Class {
		case "video":
			video = &rep.Classes[i]
		case "foveal":
			foveal = &rep.Classes[i]
		}
	}
	if video == nil || foveal == nil {
		t.Fatalf("report missing a class: %+v", rep.Classes)
	}
	if foveal.Rejected != 0 {
		t.Errorf("foveal sessions rejected under video flood: %d (reasons %v)", foveal.Rejected, foveal.Reasons)
	}
	if foveal.Completed != foveal.Requested {
		t.Errorf("foveal completed %d/%d", foveal.Completed, foveal.Requested)
	}
	if video.Rejected == 0 {
		t.Error("video flood was never refused — the pool cannot have been contended")
	}
	if !rep.Contended {
		t.Error("mix never observed contention")
	}
}

// TestMixDeterministicUnderChaos is the acceptance-criteria e2e: the same
// seed and shape produce byte-identical per-class QoS JSON, including with
// a replayed chaos schedule, and a different seed produces a different
// report.
func TestMixDeterministicUnderChaos(t *testing.T) {
	video, foveal := NewVideo(), NewFoveal()
	run := func(seed uint64) []byte {
		sched := MixChaos(seed, 10*time.Second)
		rep, err := RunMix(HarnessConfig{
			Seed:     seed,
			LinkPool: 1.2e6,
			Classes: []ClassConfig{
				{App: video, Sessions: 4, ArrivalEvery: 300 * time.Millisecond},
				{App: foveal, Sessions: 2, ArrivalEvery: 500 * time.Millisecond},
			},
			Chaos: &sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := run(42), run(42)
	if !bytes.Equal(a, b) {
		t.Errorf("same seed, different reports:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if c := run(43); bytes.Equal(a, c) {
		t.Error("different seeds produced identical reports — seed is not wired through")
	}
	// The chaos schedule must actually have fired.
	var rep MixReport
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Faults) == 0 {
		t.Error("chaos run injected no faults")
	}
}

// TestMixRejectsBadConfig covers the harness validation edges.
func TestMixRejectsBadConfig(t *testing.T) {
	if _, err := RunMix(HarnessConfig{}); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := RunMix(HarnessConfig{Classes: []ClassConfig{
		{App: NewVideo(), Sessions: 0, ArrivalEvery: time.Second},
	}}); err == nil {
		t.Error("zero sessions accepted")
	}
	if _, err := RunMix(HarnessConfig{Classes: []ClassConfig{
		{App: NewVideo(), Sessions: 1},
	}}); err == nil {
		t.Error("zero arrival gap accepted")
	}
}

// Every session asks its application for its demand twice (arbitration and
// placement), so Demand hands out one shared value instead of building a map.
func TestDemandAllocatesNothing(t *testing.T) {
	for _, app := range []Application{NewVideo(), NewFoveal()} {
		var sink map[string]resource.Vector
		if n := testing.AllocsPerRun(100, func() { sink = app.Demand() }); n != 0 {
			t.Errorf("%s: Demand allocates %v objects per call, want 0", app.Class(), n)
		}
		if len(sink) != 2 {
			t.Errorf("%s: Demand has %d components, want client and server", app.Class(), len(sink))
		}
	}
}

// TestReplanSkipsUnchangedInputs: a session whose clamped estimate and
// contention flag have not moved since its last plan is not planned again
// — the retuner's plan selects nothing, allocates nothing and sends
// nothing — while a moved link bandwidth or client share is planned
// afresh. A plan sends only a choice that differs from the session's
// target, so a first plan that keeps the default configuration sends
// nothing. Both classes hold grants, so every plan goes through the
// arbiter's clamp and is derated, and each one counts as a derated plan,
// skipped or not.
func TestReplanSkipsUnchangedInputs(t *testing.T) {
	app := NewVideo()
	db, err := app.DB()
	if err != nil {
		t.Fatal(err)
	}
	model := &countingModel{Model: db}
	sched, err := scheduler.New(app.Spec(), model, app.Preferences())
	if err != nil {
		t.Fatal(err)
	}
	// Every selection resolves each candidate's lattice once.
	candidates := len(sched.Candidates())
	selections := func() int { return model.lookups / candidates }
	arb, err := scheduler.NewArbiter(resource.Vector{resource.CPU: 2, resource.Bandwidth: 600e3},
		[]scheduler.ClassShare{{Class: "video", Weight: 1}, {Class: "foveal", Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"video", "foveal"} {
		if _, err := arb.Acquire(class, resource.Vector{resource.Bandwidth: 100e3}); err != nil {
			t.Fatal(err)
		}
	}
	sim := vtime.NewSim()
	steer, err := steering.New(sim, app.Spec(), app.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(sim, core.Config{Scheduler: sched, Steering: steer})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{sim: sim, arb: arb}
	cr := &classRun{cfg: ClassConfig{App: app}, sched: sched}
	s := &session{class: cr, link: netem.NewLink(sim, "data:video", 300e3), fw: fw, share: app.Demand()["client"].Get(resource.CPU, 1)}
	sent := func() (n int) {
		for {
			if _, ok, ready := steer.Control().TryRecv(); !ok || !ready {
				return n
			}
			n++
		}
	}
	check := func(step string, wantSelects, wantSent int) {
		t.Helper()
		if got := selections(); got != wantSelects {
			t.Errorf("%s: %v selections so far, want %v", step, got, wantSelects)
		}
		if n := sent(); n != wantSent {
			t.Errorf("%s: %d control messages sent, want %d", step, n, wantSent)
		}
	}

	h.plan(s)
	check("first plan", 1, 0) // 300 kB/s keeps the default fps=15
	if n := testing.AllocsPerRun(20, func() { h.plan(s) }); n != 0 {
		t.Errorf("a plan with unchanged inputs allocates %v times, want 0", n)
	}
	check("unchanged inputs", 1, 0)
	if err := s.link.SetBandwidth(48e3); err != nil {
		t.Fatal(err)
	}
	h.plan(s)
	check("bandwidth moved", 2, 1) // at 48 kB/s only best effort is feasible: fps=30
	s.share /= 2
	h.plan(s)
	if got := selections(); got != 3 {
		t.Errorf("share moved: %v selections so far, want 3", got)
	}
	if plans := 1 + 21 + 1 + 1; cr.derated != plans {
		t.Errorf("%d derated plans counted, want all %d", cr.derated, plans)
	}
}

// countingModel is a performance model that counts the lattice lookups
// made through it.
type countingModel struct {
	perfdb.Model
	lookups int
}

func (m *countingModel) Lattice(configKey string) (*perfdb.Lattice, error) {
	m.lookups++
	return m.Model.Lattice(configKey)
}
