// Package profiler implements the paper's performance-database driver
// (Section 5): it repeatedly executes every application configuration in
// the virtual testbed at each point of a multidimensional resource grid,
// recording the achieved quality metrics. Samples are independent
// simulations, so the driver fans them out across a worker pool of OS
// threads; database insertion stays serialized in the collector. A
// sensitivity-analysis refinement loop adds samples where metrics change
// steeply between adjacent grid points.
package profiler

import (
	"fmt"
	"runtime"
	"sync"

	"tunable/internal/perfdb"
	"tunable/internal/resource"
	"tunable/internal/spec"
)

// RunFunc executes one testbed sample: the application under
// configuration cfg with the resources res, returning its quality
// metrics. Implementations must be safe for concurrent calls (each call
// builds its own simulated world).
type RunFunc func(cfg spec.Config, res resource.Vector) (spec.Metrics, error)

// Driver populates a performance database.
type Driver struct {
	app     *spec.App
	db      *perfdb.DB
	run     RunFunc
	grid    *resource.Grid
	configs []spec.Config
	workers int

	// Progress, if set, is called after each completed sample, one call at
	// a time and in order of done, on the goroutine that called Populate or
	// Refine.
	Progress func(done, total int)
}

// Option customizes a driver.
type Option func(*Driver)

// WithConfigs overrides the configurations to sample (default: all
// guard-satisfying configurations of the application).
func WithConfigs(cfgs []spec.Config) Option {
	return func(d *Driver) { d.configs = cfgs }
}

// withWorkers sets the worker-pool size (default GOMAXPROCS).
func withWorkers(n int) Option {
	return func(d *Driver) {
		if n > 0 {
			d.workers = n
		}
	}
}

// New creates a driver sweeping the given grid.
func New(db *perfdb.DB, grid *resource.Grid, run RunFunc, opts ...Option) (*Driver, error) {
	if db == nil || grid == nil || run == nil {
		return nil, fmt.Errorf("profiler: db, grid, and run function are required")
	}
	d := &Driver{
		app:     db.App(),
		db:      db,
		run:     run,
		grid:    grid,
		workers: runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(d)
	}
	if d.configs == nil {
		d.configs = d.app.RunnableConfigs()
	}
	return d, nil
}

// job is one testbed execution.
type job struct {
	cfg spec.Config
	res resource.Vector
}

// result carries a finished sample to the collector.
type result struct {
	job job
	m   spec.Metrics
	err error
}

// Populate sweeps every configuration across every grid point and inserts
// the measurements into the database; a repeated sweep adds samples the
// database averages in. The first execution error aborts the sweep (after
// in-flight samples drain).
func (d *Driver) Populate() error {
	jobs := make([]job, 0, len(d.configs)*d.grid.Size())
	for _, cfg := range d.configs {
		for _, pt := range d.grid.Points() {
			jobs = append(jobs, job{cfg: cfg, res: pt})
		}
	}
	return d.runJobs(jobs)
}

// runJobs fans jobs across the worker pool and collects results into the
// database in deterministic order (results are buffered per job index).
func (d *Driver) runJobs(jobs []job) error {
	if len(jobs) == 0 {
		return nil
	}
	type indexed struct {
		i int
		r result
	}
	jobCh := make(chan indexed, len(jobs))
	for i, j := range jobs {
		jobCh <- indexed{i: i, r: result{job: j}}
	}
	close(jobCh)
	out := make([]result, len(jobs))
	var wg sync.WaitGroup
	workers := d.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	finished := make(chan struct{}, len(jobs)) // one send per job
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range jobCh {
				m, err := d.run(item.r.job.cfg, item.r.job.res)
				out[item.i] = result{job: item.r.job, m: m, err: err}
				finished <- struct{}{}
			}
		}()
	}
	// Progress runs here, on the caller's goroutine, so its calls arrive
	// one at a time and in order of done.
	for done := 1; done <= len(jobs); done++ {
		<-finished
		if d.Progress != nil {
			d.Progress(done, len(jobs))
		}
	}
	wg.Wait()
	// Insert in job order so the database contents are deterministic.
	for _, r := range out {
		if r.err != nil {
			return fmt.Errorf("profiler: %s at %s: %w", r.job.cfg.Key(), r.job.res, r.err)
		}
		if err := d.db.Add(r.job.cfg, r.job.res, r.m); err != nil {
			return err
		}
	}
	return nil
}

// Refine runs sensitivity-guided refinement: up to maxRounds times, it
// asks the database for regions where metrics change by more than
// threshold (relative) between adjacent samples, executes the suggested
// midpoints (capped at maxPerRound), and inserts them. It returns the
// number of samples added.
func (d *Driver) Refine(threshold float64, maxRounds, maxPerRound int) (int, error) {
	added := 0
	for round := 0; round < maxRounds; round++ {
		suggestions := d.db.SensitivityAnalysis(threshold)
		if len(suggestions) == 0 {
			break
		}
		var jobs []job
		seen := map[string]bool{}
		for _, s := range suggestions {
			key := s.Config.Key() + "|" + s.At.Key()
			if seen[key] {
				continue
			}
			// Skip points already sampled.
			if _, ok := d.db.Lookup(s.Config, s.At); ok {
				continue
			}
			seen[key] = true
			jobs = append(jobs, job{cfg: s.Config, res: s.At})
			if maxPerRound > 0 && len(jobs) >= maxPerRound {
				break
			}
		}
		if len(jobs) == 0 {
			break
		}
		if err := d.runJobs(jobs); err != nil {
			return added, err
		}
		added += len(jobs)
	}
	return added, nil
}
