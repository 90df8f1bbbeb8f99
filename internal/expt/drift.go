package expt

import (
	"fmt"
	"time"

	"tunable/internal/avis"
	"tunable/internal/faults"
	"tunable/internal/perfstore"
	"tunable/internal/resource"
	"tunable/internal/scheduler"
	"tunable/internal/spec"
	"tunable/internal/trace"
)

// The drift experiment: the paper profiles its database offline and
// assumes the testbed still describes production. Here it deliberately
// does not. The prior is the Figure 6(b) database — resolution levels
// profiled across the CPU axis but at a single 200 KB/s bandwidth point —
// and the user preference is Experiment 2's: maximize resolution subject
// to a 10 s transmission deadline. When the seeded fault schedule dips
// the link to 40 KB/s mid-run, the offline framework is structurally
// blind: its bandwidth axis has one lattice point, so predictions never
// change, the validity band on bandwidth is unbounded, no trigger fires,
// and it keeps serving level 4 at 4× the deadline until the run ends. The
// online run feeds achieved image metrics back through the perfstore
// ingest pipeline: the first post-dip downloads fold the real level-4
// cost into the overlay, the model-drift trigger wakes the scheduler, the
// refined model shows level 4 infeasible, and the framework re-converges
// onto level 3 — back under the deadline.
const (
	// driftShare is the client CPU share (high, so bandwidth is the only
	// drifting resource).
	driftShare = 0.9
	// driftBaseBW is the profiled operating point of the prior.
	driftBaseBW = 200e3
	// driftDipBW is the bandwidth floor the fault schedule imposes.
	driftDipBW = 40e3
	// driftDipAt is when the dip opens (after ~4 full-speed images).
	driftDipAt = 15 * time.Second
	// DriftDeadline is the transmission-time bound of the preference.
	DriftDeadline = 10.0
	// DriftImages is the download count (long enough past the dip for the
	// online store to learn and profit from it).
	DriftImages = 14
)

// DriftSchedule is the seeded fault schedule of the drift experiment: one
// long bandwidth dip on the data link, opening at driftDipAt and lasting
// through the rest of the run.
func DriftSchedule(seed uint64) faults.Schedule {
	return faults.NewSchedule(seed, faults.Event{
		At:       driftDipAt,
		Duration: time.Hour,
		Kind:     faults.Bandwidth,
		Target:   "data",
		Rate:     driftDipBW,
	})
}

func driftPrefs() []scheduler.Preference {
	return []scheduler.Preference{
		{
			Name:        "deadline-10s",
			Constraints: []scheduler.Constraint{scheduler.AtMost("transmit_time", DriftDeadline)},
			Objective:   "resolution",
		},
		{
			Name:      "fastest",
			Objective: "transmit_time",
		},
	}
}

func driftBase() avis.WorldConfig {
	return avis.WorldConfig{Bandwidth: driftBaseBW, ClientShare: driftShare}
}

func driftInitRes() resource.Vector {
	return resource.Vector{resource.CPU: driftShare, resource.Bandwidth: driftBaseBW}
}

// RunDriftOffline runs the drift scenario with the adaptation loop
// reading the stale offline database only.
func RunDriftOffline(seed uint64) (RunResult, error) {
	db, err := Fig6bDB()
	if err != nil {
		return RunResult{}, err
	}
	return runAdaptiveOpts("offline", db, driftPrefs(), driftBase(), DriftImages,
		driftInitRes(), nil, false, withFaultSchedule(DriftSchedule(seed)))
}

// RunDriftOnline runs the same scenario with the adaptation loop reading
// a live perfstore over the stale prior and the given persistence
// backend: every completed image feeds the ingest pipeline, and folds
// that move the active configuration's profile by more than 20% raise a
// model-drift trigger so the scheduler reconsiders against the refined
// model. The store is flushed but left open (the caller owns the backend
// and inspects or closes it).
func RunDriftOnline(seed uint64, backend perfstore.Store) (RunResult, *perfstore.PerfStore, error) {
	db, err := Fig6bDB()
	if err != nil {
		return RunResult{}, nil, err
	}
	// BatchSize 1: each completed image folds immediately (the loop is
	// interactive, not high-throughput). Alpha 0.5: the prior is known to
	// be stale along the drifting axis, so weight fresh evidence heavily
	// for fast re-convergence.
	ps, err := perfstore.New(avis.Spec(), db, backend, perfstore.Options{BatchSize: 1, Alpha: 0.5})
	if err != nil {
		return RunResult{}, nil, err
	}
	// raise is bound inside runAdaptiveOpts once the monitor and steering
	// agent exist; until then refinements cannot trigger (and none occur,
	// since ingest starts with the run). The 5% threshold matters: EW
	// refinement converges geometrically, so the fold that finally moves a
	// prediction across a preference constraint may itself be a small step —
	// while steady-state measurement noise folds at ~α·noise, well under 5%.
	var raise func(configKey string)
	ps.OnRefine(func(configKey string, delta float64) {
		if raise != nil && delta > 0.05 {
			raise(configKey)
		}
	})
	r, err := runAdaptiveOpts("online", ps, driftPrefs(), driftBase(), DriftImages,
		driftInitRes(), nil, false,
		withFaultSchedule(DriftSchedule(seed)),
		withOnStat(func(stat avis.ImageStat, res resource.Vector, cfg spec.Config) {
			ps.Offer(perfstore.Sample{
				Config:    cfg,
				Resources: res,
				Observed:  stat.Metrics(),
				At:        stat.Start + stat.TransmitTime,
				Source:    "avis-client",
			})
		}),
		withModelTrigger(&raise),
	)
	ps.Flush()
	return r, ps, err
}

// DeadlineHits counts the images completed within the drift deadline
// after the dip opened — the achieved-quality measure the drift runs are
// compared on.
func DeadlineHits(r RunResult) (hits, post int) {
	for _, st := range r.Stats {
		if st.Start < driftDipAt {
			continue
		}
		post++
		if st.TransmitTime.Seconds() <= DriftDeadline {
			hits++
		}
	}
	return hits, post
}

// DriftWith runs both variants, the online one over a caller-supplied
// persistence backend (the CLI passes a WAL store so the refined model
// survives the process), and renders the comparison figure.
func DriftWith(seed uint64, backend perfstore.Store) (*FigResult, RunResult, RunResult, error) {
	offline, err := RunDriftOffline(seed)
	if err != nil {
		return nil, RunResult{}, RunResult{}, err
	}
	online, ps, err := RunDriftOnline(seed, backend)
	if err != nil {
		return nil, RunResult{}, RunResult{}, err
	}
	defer ps.Close()
	rec := trace.NewRecorder()
	offline.completionSeries(rec, "transmit_time")
	online.completionSeries(rec, "transmit_time")
	offHits, offPost := DeadlineHits(offline)
	onHits, onPost := DeadlineHits(online)
	fig := &FigResult{
		ID:    "drift",
		Title: "Model drift: offline database stuck vs online store re-converging",
		Rec:   rec,
		Notes: []string{
			fmt.Sprintf("prior profiled at %.0f KB/s only; seeded dip to %.0f KB/s at t=%s",
				driftBaseBW/1e3, driftDipBW/1e3, driftDipAt),
			fmt.Sprintf("post-dip images within the %gs deadline: offline %d/%d, online %d/%d",
				DriftDeadline, offHits, offPost, onHits, onPost),
			fmt.Sprintf("totals: offline %s (final %s), online %s (final %s)",
				seconds(offline.Total), offline.Final.Key(), seconds(online.Total), online.Final.Key()),
			fmt.Sprintf("online switches: %d, offline switches: %d", online.Switches, offline.Switches),
		},
	}
	return fig, offline, online, nil
}

// withModelTrigger installs the model-drift trigger path: *raise is bound
// (once the world exists) to a function that, when the refined
// configuration is the active one, injects a synthetic trigger into the
// monitoring agent's channel so the control loop reconsiders.
func withModelTrigger(raise *func(configKey string)) adaptOpt {
	return func(c *adaptCfg) { c.modelTrigger = raise }
}
