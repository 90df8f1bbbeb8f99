package profiler

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"tunable/internal/perfdb"
	"tunable/internal/resource"
	"tunable/internal/spec"
)

func testApp() *spec.App {
	return spec.MustParse(`
app prof;
control_parameters { int n in {1, 2}; }
qos_metric { duration t minimize; }
`)
}

// analyticRun computes t = n / cpu, a deterministic stand-in for a testbed
// execution.
func analyticRun(cfg spec.Config, res resource.Vector) (spec.Metrics, error) {
	n := float64(cfg["n"].I)
	cpu := res[resource.CPU]
	if cpu <= 0 {
		return nil, fmt.Errorf("bad cpu %v", cpu)
	}
	return spec.Metrics{"t": n / cpu}, nil
}

func TestPopulateFillsGrid(t *testing.T) {
	app := testApp()
	db := perfdb.New(app)
	grid := resource.NewGrid(resource.Axis{Kind: resource.CPU, Points: resource.Linspace(0.2, 1.0, 5)})
	d, err := New(db, grid, analyticRun)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Populate(); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2*5 {
		t.Fatalf("db has %d records, want 10", db.Len())
	}
	rec, ok := db.Lookup(spec.Config{"n": spec.Int(2)}, resource.Vector{resource.CPU: 0.4})
	if !ok {
		t.Fatal("missing record")
	}
	if math.Abs(rec.Metrics["t"]-5.0) > 1e-9 {
		t.Fatalf("t=%v", rec.Metrics["t"])
	}
}

func TestPopulateParallelMatchesSerial(t *testing.T) {
	grid := resource.NewGrid(resource.Axis{Kind: resource.CPU, Points: resource.Linspace(0.1, 1.0, 12)})
	build := func(workers int) *perfdb.DB {
		db := perfdb.New(testApp())
		d, err := New(db, grid, analyticRun, withWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Populate(); err != nil {
			t.Fatal(err)
		}
		return db
	}
	serial, parallel := build(1), build(8)
	for _, cfg := range serial.Configs() {
		for _, rec := range serial.Records(cfg) {
			p, ok := parallel.Lookup(cfg, rec.Resources)
			if !ok || p.Metrics["t"] != rec.Metrics["t"] {
				t.Fatalf("parallel/serial divergence at %s %s", cfg.Key(), rec.Resources)
			}
		}
	}
}

// Repeated sweeps over the same points are averaged by the database.
func TestRepetitionsAveraged(t *testing.T) {
	var calls atomic.Int64
	run := func(cfg spec.Config, res resource.Vector) (spec.Metrics, error) {
		k := calls.Add(1)
		return spec.Metrics{"t": float64(k)}, nil // varies per call
	}
	db := perfdb.New(testApp())
	grid := resource.NewGrid(resource.Axis{Kind: resource.CPU, Points: []float64{0.5}})
	d, _ := New(db, grid, run, WithConfigs([]spec.Config{{"n": spec.Int(1)}}))
	for i := 0; i < 3; i++ {
		if err := d.Populate(); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("%d calls", calls.Load())
	}
	rec, _ := db.Lookup(spec.Config{"n": spec.Int(1)}, resource.Vector{resource.CPU: 0.5})
	if rec.Samples != 3 {
		t.Fatalf("samples %d", rec.Samples)
	}
	if rec.Metrics["t"] != 2.0 { // mean of 1,2,3
		t.Fatalf("averaged t=%v", rec.Metrics["t"])
	}
}

func TestRunErrorsPropagate(t *testing.T) {
	run := func(cfg spec.Config, res resource.Vector) (spec.Metrics, error) {
		return nil, fmt.Errorf("boom")
	}
	db := perfdb.New(testApp())
	grid := resource.NewGrid(resource.Axis{Kind: resource.CPU, Points: []float64{0.5}})
	d, _ := New(db, grid, run)
	if err := d.Populate(); err == nil {
		t.Fatal("error not propagated")
	}
}

func TestRefineAddsSamplesInSteepRegions(t *testing.T) {
	// Step function: steep between 0.4 and 0.6.
	run := func(cfg spec.Config, res resource.Vector) (spec.Metrics, error) {
		if res[resource.CPU] < 0.5 {
			return spec.Metrics{"t": 10}, nil
		}
		return spec.Metrics{"t": 1}, nil
	}
	db := perfdb.New(testApp())
	grid := resource.NewGrid(resource.Axis{Kind: resource.CPU, Points: []float64{0.2, 0.4, 0.6, 0.8}})
	d, _ := New(db, grid, run, WithConfigs([]spec.Config{{"n": spec.Int(1)}}))
	if err := d.Populate(); err != nil {
		t.Fatal(err)
	}
	before := db.Len()
	added, err := d.Refine(0.5, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("refinement added nothing despite a step")
	}
	if db.Len() != before+added {
		t.Fatalf("db %d, want %d", db.Len(), before+added)
	}
	// The midpoint of the steep interval must now exist.
	if _, ok := db.Lookup(spec.Config{"n": spec.Int(1)}, resource.Vector{resource.CPU: 0.5}); !ok {
		t.Fatal("midpoint 0.5 not sampled")
	}
}

func TestRefineStopsOnFlatProfile(t *testing.T) {
	run := func(cfg spec.Config, res resource.Vector) (spec.Metrics, error) {
		return spec.Metrics{"t": 1}, nil
	}
	db := perfdb.New(testApp())
	grid := resource.NewGrid(resource.Axis{Kind: resource.CPU, Points: resource.Linspace(0.2, 1, 5)})
	d, _ := New(db, grid, run)
	if err := d.Populate(); err != nil {
		t.Fatal(err)
	}
	added, err := d.Refine(0.1, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Fatalf("flat profile refined %d times", added)
	}
}

func TestProgressCallback(t *testing.T) {
	db := perfdb.New(testApp())
	grid := resource.NewGrid(resource.Axis{Kind: resource.CPU, Points: resource.Linspace(0.2, 1, 4)})
	d, _ := New(db, grid, analyticRun)
	var last atomic.Int64
	d.Progress = func(done, total int) {
		last.Store(int64(done))
		if total != 8 {
			t.Errorf("total %d", total)
		}
	}
	if err := d.Populate(); err != nil {
		t.Fatal(err)
	}
	if last.Load() != 8 {
		t.Fatalf("last progress %d", last.Load())
	}
}

func TestNewValidation(t *testing.T) {
	db := perfdb.New(testApp())
	grid := resource.NewGrid()
	if _, err := New(nil, grid, analyticRun); err == nil {
		t.Fatal("nil db accepted")
	}
	if _, err := New(db, nil, analyticRun); err == nil {
		t.Fatal("nil grid accepted")
	}
	if _, err := New(db, grid, nil); err == nil {
		t.Fatal("nil run accepted")
	}
}
