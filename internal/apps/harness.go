package apps

import (
	"fmt"
	"sort"
	"time"

	"tunable/internal/core"
	"tunable/internal/faults"
	"tunable/internal/netem"
	"tunable/internal/prng"
	"tunable/internal/resource"
	"tunable/internal/sandbox"
	"tunable/internal/scheduler"
	"tunable/internal/spec"
	"tunable/internal/steering"
	"tunable/internal/vtime"
)

// ClassConfig describes one application class's slice of the mix.
type ClassConfig struct {
	App Application
	// Sessions is how many sessions of the class arrive.
	Sessions int
	// ArrivalEvery is the mean inter-arrival gap (seeded jitter on top).
	ArrivalEvery time.Duration
	// Weight is the class's arbitration weight (default 1).
	Weight float64
}

// HarnessConfig shapes one mixed-workload run. The whole run executes on a
// single virtual-time simulation, so a (Seed, config) pair is fully
// deterministic — byte-identical reports, chaos or not.
type HarnessConfig struct {
	// Seed drives arrival jitter and per-session seeds.
	Seed uint64
	// Hosts is the number of sandbox hosts in the pool (default 4).
	Hosts int
	// LinkPool is the total link bandwidth (bytes/s) the arbiter divides
	// between classes (default 1.5e6).
	LinkPool float64
	// Classes is the workload mix.
	Classes []ClassConfig
	// Chaos, when non-nil, is replayed against the per-session links.
	Chaos *faults.Schedule
}

const (
	// hostSpeed is each pool host's clock in cycles/s.
	hostSpeed = 450e6
	// deratedMargin is the planning margin applied while classes contend.
	deratedMargin = 0.2
	// retunePeriod is how often the retuner runs the decision pass of active
	// sessions.
	retunePeriod = 500 * time.Millisecond
)

func (c HarnessConfig) withDefaults() HarnessConfig {
	if c.Hosts == 0 {
		c.Hosts = 4
	}
	if c.LinkPool == 0 {
		c.LinkPool = 1.5e6
	}
	return c
}

// MetricSummary aggregates one QoS metric across a class's completed
// sessions.
type MetricSummary struct {
	Mean float64 `json:"mean"`
	P95  float64 `json:"p95"`
}

// ClassReport is one class's outcome. DeratedPlans counts the class's
// contended planning rounds: initial plans and retune rounds made while
// more than one class held grants, including those that selected nothing
// because the session's inputs had not moved since its last plan.
type ClassReport struct {
	Class        string                   `json:"class"`
	Requested    int                      `json:"requested"`
	Admitted     int                      `json:"admitted"`
	Rejected     int                      `json:"rejected"`
	Completed    int                      `json:"completed"`
	Failed       int                      `json:"failed"`
	Passed       int                      `json:"passed"`
	PassRate     float64                  `json:"pass_rate"`
	Switches     int64                    `json:"switches"`
	DeratedPlans int                      `json:"derated_plans"`
	ScoreP50     float64                  `json:"score_p50"`
	ScoreP95     float64                  `json:"score_p95"`
	Metrics      map[string]MetricSummary `json:"metrics"`
	Reasons      map[string]int           `json:"reasons,omitempty"`
}

// MixReport is the harness's deterministic output.
type MixReport struct {
	Seed           uint64        `json:"seed"`
	VirtualSeconds float64       `json:"virtual_seconds"`
	Contended      bool          `json:"contended"`
	Classes        []ClassReport `json:"classes"`
	Faults         []string      `json:"faults,omitempty"`
}

// classRun is one class's live state inside a run.
type classRun struct {
	cfg     ClassConfig
	sched   *scheduler.Scheduler
	initial spec.Config // every session's steering agent starts in it

	rejected int
	failed   int
	passed   int
	derated  int
	switches int64
	scores   []float64
	observed map[string][]float64
	reasons  map[string]int
}

// session is one admitted-or-not workload instance; the retuner walks
// these in creation order, which is deterministic.
type session struct {
	id    string
	class *classRun
	link  *netem.Link
	fw    *core.Framework // decides for the session while it runs; nil before and after
	share float64         // the client CPU share the session plans against

	// res is the vector the session plans with, kept between plans (nil
	// before the first): the values it holds when a plan starts are the
	// last plan's inputs. contended is whether classes contended then.
	res       resource.Vector
	contended bool
}

// harness wires admission, arbitration, steering, and fault injection
// around the application sessions.
type harness struct {
	cfg       HarnessConfig
	sim       *vtime.Sim
	adm       *scheduler.Admission
	arb       *scheduler.Arbiter
	hostNames []string
	classes   []*classRun
	sessions  []*session
	remaining int
	contended bool
}

// RunMix executes one seeded mixed workload to completion in virtual time
// and returns the per-class QoS report.
func RunMix(cfg HarnessConfig) (*MixReport, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("apps: mix needs at least one class")
	}
	h := &harness{cfg: cfg, sim: vtime.NewSim()}

	// Host pool under admission control.
	h.adm = scheduler.NewAdmission()
	for i := 0; i < cfg.Hosts; i++ {
		name := fmt.Sprintf("h%02d", i)
		if err := h.adm.AddHost(sandbox.NewHost(h.sim, name, hostSpeed)); err != nil {
			return nil, err
		}
		h.hostNames = append(h.hostNames, name)
	}
	sort.Strings(h.hostNames)

	// Cross-class arbiter over the shared CPU and link pools.
	var shares []scheduler.ClassShare
	for _, cc := range cfg.Classes {
		w := cc.Weight
		if w == 0 {
			w = 1
		}
		shares = append(shares, scheduler.ClassShare{Class: cc.App.Class(), Weight: w})
	}
	arb, err := scheduler.NewArbiter(resource.Vector{
		resource.CPU:       float64(cfg.Hosts) * sandbox.MaxReservable,
		resource.Bandwidth: cfg.LinkPool,
	}, shares)
	if err != nil {
		return nil, err
	}
	h.arb = arb

	// Per-class scheduler over the class's profiled database.
	for _, cc := range cfg.Classes {
		if cc.Sessions <= 0 {
			return nil, fmt.Errorf("apps: class %q needs sessions > 0", cc.App.Class())
		}
		if cc.ArrivalEvery <= 0 {
			return nil, fmt.Errorf("apps: class %q needs a positive arrival gap", cc.App.Class())
		}
		db, err := cc.App.DB()
		if err != nil {
			return nil, fmt.Errorf("apps: profiling %s: %w", cc.App.Class(), err)
		}
		sched, err := scheduler.New(cc.App.Spec(), db, cc.App.Preferences())
		if err != nil {
			return nil, err
		}
		h.classes = append(h.classes, &classRun{
			cfg:      cc,
			sched:    sched,
			initial:  cc.App.DefaultConfig(),
			observed: map[string][]float64{},
			reasons:  map[string]int{},
		})
	}

	// Pre-create every session's link at t=0 so the chaos driver can arm
	// its events over a static label set, then spawn the sessions.
	links := map[string]*netem.Link{}
	for _, cr := range h.classes {
		rng := prng.New(cfg.Seed ^ prng.Hash(cr.cfg.App.Class()))
		var arrive time.Duration
		for i := 0; i < cr.cfg.Sessions; i++ {
			id := fmt.Sprintf("%s:s-%04d", cr.cfg.App.Class(), i)
			link := netem.NewLink(h.sim, "data:"+id, cr.cfg.App.LinkDemand())
			links["data:"+id] = link
			s := &session{id: id, class: cr, link: link, share: cr.cfg.App.Demand()["client"].Get(resource.CPU, 1)}
			h.sessions = append(h.sessions, s)
			h.remaining++
			// Seeded jitter on top of the nominal gap keeps arrivals from
			// phase-locking while staying a pure function of the seed.
			gap := cr.cfg.ArrivalEvery
			arrive += gap/2 + time.Duration(rng.Float64()*float64(gap))
			at, seed := arrive, rng.Next()
			h.sim.Spawn(id, func(p *vtime.Proc) { h.runSession(p, s, at, seed) })
		}
	}

	var drv *faults.Driver
	if cfg.Chaos != nil {
		drv, err = faults.NewDriver(h.sim, links, nil, *cfg.Chaos)
		if err != nil {
			return nil, err
		}
		drv.Install()
	}
	h.sim.Spawn("mix-retuner", func(p *vtime.Proc) { h.retune(p) })
	if err := h.sim.Run(); err != nil {
		return nil, err
	}
	var log []faults.Injected
	if drv != nil {
		log = drv.Log()
	}
	return h.report(log), nil
}

// runSession is one session's lifecycle: arrive, pass cross-class
// arbitration then host admission, run under steering, judge, release.
func (h *harness) runSession(p *vtime.Proc, s *session, arrive time.Duration, seed uint64) {
	defer func() { h.remaining-- }()
	p.SleepUntil(arrive)
	app := s.class.cfg.App

	var cpu float64
	for _, want := range app.Demand() {
		cpu += want.Get(resource.CPU, 0)
	}
	grant, err := h.arb.Acquire(app.Class(), resource.Vector{
		resource.CPU:       cpu,
		resource.Bandwidth: app.LinkDemand(),
	})
	if err != nil {
		s.class.rejected++
		s.class.reasons["rejected:arbiter"]++
		return
	}
	defer h.arb.Release(grant)
	if h.arb.Contended() {
		h.contended = true
	}

	resv, err := h.adm.ReservePlaced(s.id, h.place(app.Demand()))
	if err != nil {
		s.class.rejected++
		s.class.reasons["rejected:admission"]++
		return
	}
	defer resv.Release()

	client, okc := resv.Sandbox("client")
	server, oks := resv.Sandbox("server")
	if !okc || !oks {
		s.class.failed++
		s.class.reasons["failed:no-sandbox"]++
		return
	}

	steer, err := steering.New(h.sim, app.Spec(), s.class.initial)
	if err == nil {
		s.fw, err = core.New(h.sim, core.Config{Scheduler: s.class.sched, Steering: steer})
	}
	if err != nil {
		s.class.failed++
		s.class.reasons["failed:steering"]++
		return
	}
	h.plan(s) // initial decision before the first transition point
	env := &SessionEnv{Sim: h.sim, Link: s.link, Client: client, Server: server, Steer: steer, Seed: seed}
	m, err := app.Run(p, env)
	s.fw = nil
	s.class.switches += steer.Switches()
	if err == nil {
		err = validateMetrics(app, m)
	}
	if err != nil {
		s.class.failed++
		s.class.reasons["failed:"+truncateReason(err.Error())]++
		return
	}
	for name, v := range m {
		s.class.observed[name] = append(s.class.observed[name], v)
	}
	q := app.Verdict(m)
	s.class.scores = append(s.class.scores, q.Score)
	if q.Pass {
		s.class.passed++
	} else {
		s.class.reasons["qos:"+q.Reason]++
	}
}

// place assigns each component to the host with the most unreserved CPU
// (ties broken by name), accounting for components placed earlier in the
// same reservation.
func (h *harness) place(demand map[string]resource.Vector) []scheduler.Placement {
	comps := make([]string, 0, len(demand))
	for c := range demand {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	taken := map[string]float64{}
	pls := make([]scheduler.Placement, 0, len(comps))
	for _, c := range comps {
		best, bestAvail := "", -1.0
		for _, hn := range h.hostNames {
			av, err := h.adm.Available(hn)
			if err != nil {
				continue
			}
			if avail := av - taken[hn]; avail > bestAvail+1e-12 {
				best, bestAvail = hn, avail
			}
		}
		taken[best] += demand[c].Get(resource.CPU, 0)
		pls = append(pls, scheduler.Placement{Component: c, Host: best, Want: demand[c]})
	}
	return pls
}

// plan runs the session framework's decision pass at the link's bandwidth
// and the client share, clamped by the arbiter, derated while classes
// contend. The class's model is a static database, so the decision is a
// function of the clamped vector and the contention flag alone: when both
// equal the last plan's exactly, the decision would be the last one, which
// was infeasible or is the session's target already, and plan returns
// before selecting.
func (h *harness) plan(s *session) {
	first := s.res == nil
	if first {
		s.res = resource.Vector{}
	}
	res := s.res
	bw, cpu := res[resource.Bandwidth], res[resource.CPU]
	res[resource.Bandwidth], res[resource.CPU] = s.link.Bandwidth(), s.share
	h.arb.PlanningCapacity(s.class.cfg.App.Class(), res)
	contended := h.arb.Contended()
	if contended {
		s.class.derated++
	}
	// Exact equality, not Vector.Equal's tolerance: a skipped plan is one
	// whose Select would have read the very same numbers.
	if !first && contended == s.contended && res[resource.Bandwidth] == bw && res[resource.CPU] == cpu {
		return
	}
	s.contended = contended
	margin := 0.0
	if contended {
		margin = deratedMargin
	}
	_, _ = s.fw.Decide(res, margin) // nothing feasible: the session holds its configuration
}

// retune periodically re-plans every active session, in creation order,
// so injected faults and cross-class contention feed back into running
// configurations.
func (h *harness) retune(p *vtime.Proc) {
	for h.remaining > 0 {
		p.Sleep(retunePeriod)
		for _, s := range h.sessions {
			if s.fw != nil {
				h.plan(s)
			}
		}
	}
}

// report freezes the run into its deterministic JSON-ready form.
func (h *harness) report(injected []faults.Injected) *MixReport {
	rep := &MixReport{
		Seed:           h.cfg.Seed,
		VirtualSeconds: h.sim.Now().Seconds(),
		Contended:      h.contended,
	}
	for _, cr := range h.classes {
		completed := len(cr.scores)
		c := ClassReport{
			Class:        cr.cfg.App.Class(),
			Requested:    cr.cfg.Sessions,
			Admitted:     cr.cfg.Sessions - cr.rejected,
			Rejected:     cr.rejected,
			Completed:    completed,
			Failed:       cr.failed,
			Passed:       cr.passed,
			Switches:     cr.switches,
			DeratedPlans: cr.derated,
			ScoreP50:     percentile(cr.scores, 0.50),
			ScoreP95:     percentile(cr.scores, 0.95),
			Metrics:      map[string]MetricSummary{},
		}
		if completed > 0 {
			c.PassRate = float64(cr.passed) / float64(completed)
		}
		for name, vs := range cr.observed {
			c.Metrics[name] = MetricSummary{Mean: mean(vs), P95: percentile(vs, 0.95)}
		}
		if len(cr.reasons) > 0 {
			c.Reasons = cr.reasons
		}
		rep.Classes = append(rep.Classes, c)
	}
	sort.Slice(rep.Classes, func(i, j int) bool { return rep.Classes[i].Class < rep.Classes[j].Class })
	for _, inj := range injected {
		rep.Faults = append(rep.Faults, inj.String())
	}
	return rep
}

// MixChaos generates a chaos schedule safe for the mix: message drops and
// partitions hit only video links (frame loss degrades the stream but
// cannot wedge it), while bandwidth dips and latency spikes — which the
// foveal request/reply protocol rides out — hit every session link.
func MixChaos(seed uint64, horizon time.Duration) faults.Schedule {
	drops := faults.Generate(seed, horizon, []string{"data:video"}, faults.GenProfile{
		Drops: 2, DropRate: 0.25, Partitions: 1,
	})
	sweeps := faults.Generate(seed^0x9E3779B97F4A7C15, horizon, nil, faults.GenProfile{
		Latencies: 2, MaxDelay: 20 * time.Millisecond,
		Dips: 2, DipFloor: 48e3,
	})
	return faults.NewSchedule(seed, append(drops.Events, sweeps.Events...)...)
}

// percentile returns the q-quantile of vs by rank (nearest-rank method);
// 0 when empty.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// truncateReason bounds failure-reason map keys so one exotic error can't
// bloat the report.
func truncateReason(s string) string {
	if len(s) > 80 {
		return s[:80]
	}
	return s
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
