package expt

import (
	"fmt"
	"time"

	"tunable/internal/avis"
	"tunable/internal/faults"
	"tunable/internal/perfstore"
	"tunable/internal/resource"
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
	return step(seed, driftDipAt, faults.Bandwidth, "data", driftDipBW)
}

// drift is the drift experiment's scenario under the given seed; it has
// no static baselines.
func drift(seed uint64) scenario {
	return scenario{
		db:    Fig6bDB,
		prefs: deadline(DriftDeadline),
		base:  avis.WorldConfig{Bandwidth: driftBaseBW, ClientShare: driftShare},
		sched: DriftSchedule(seed),
	}
}

// RunDriftOffline runs the drift scenario with the adaptation loop
// reading the stale offline database only.
func RunDriftOffline(seed uint64) (RunResult, error) {
	sc := drift(seed)
	db, err := sc.db()
	if err != nil {
		return RunResult{}, err
	}
	return runAdaptive("offline", db, sc, DriftImages)
}

// RunDriftOnline runs the same scenario with the adaptation loop reading
// a live perfstore over the stale prior and the given store: every
// completed image feeds the ingest pipeline, and folds that move the
// active configuration's profile by more than 5% raise a model-drift
// trigger so the scheduler reconsiders against the refined model. The
// PerfStore is flushed but left open (the caller owns the store and
// inspects or closes it).
func RunDriftOnline(seed uint64, store *perfstore.Store) (RunResult, *perfstore.PerfStore, error) {
	sc := drift(seed)
	db, err := sc.db()
	if err != nil {
		return RunResult{}, nil, err
	}
	// BatchSize 1: each completed image folds immediately (the loop is
	// interactive, not high-throughput). Alpha 0.5: the prior is known to
	// be stale along the drifting axis, so weight fresh evidence heavily
	// for fast re-convergence.
	ps, err := perfstore.New(avis.Spec(), db, store, perfstore.Options{BatchSize: 1, Alpha: 0.5})
	if err != nil {
		return RunResult{}, nil, err
	}
	// raise is bound inside runAdaptive once the monitor and steering
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
	sc.modelTrigger = &raise
	sc.onStat = func(stat avis.ImageStat, res resource.Vector, cfg spec.Config) {
		ps.Offer(perfstore.Sample{
			Config:    cfg,
			Resources: res,
			Observed:  stat.Metrics(),
			At:        stat.Start + stat.TransmitTime,
			Source:    "avis-client",
		})
	}
	r, err := runAdaptive("online", ps, sc, DriftImages)
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
// store (the CLI passes a log-backed one so the refined model survives the
// process), and renders the comparison figure.
func DriftWith(seed uint64, store *perfstore.Store) (*FigResult, RunResult, RunResult, error) {
	offline, err := RunDriftOffline(seed)
	if err != nil {
		return nil, RunResult{}, RunResult{}, err
	}
	online, ps, err := RunDriftOnline(seed, store)
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
