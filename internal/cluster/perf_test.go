package cluster

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"tunable/internal/avis"
	"tunable/internal/metrics"
	"tunable/internal/perfstore"
)

// TestCoordinatorSharedPerfStore drives the telemetry loop over the
// control plane: a node publishes wire samples, the coordinator folds
// them into its shared performance store, and a client fetches the
// refined overlay back.
func TestCoordinatorSharedPerfStore(t *testing.T) {
	coord := NewCoordinator(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go coord.Serve(ln)
	defer coord.Shutdown(time.Second)

	r := NewResolver(ln.Addr().String(), time.Second)
	defer r.Close()

	sample := func(key string, transmit float64) perfstore.WireSample {
		return perfstore.WireSample{
			Config:    key,
			Resources: map[string]float64{"cpu": 0.5, "bandwidth": 100e3},
			Metrics:   map[string]float64{"transmit_time": transmit},
			Source:    "test-node",
		}
	}

	// Without an installed store, perf requests are refused outright.
	if _, err := r.PublishSamples([]perfstore.WireSample{sample("c=bzw,dR=320,l=2", 3)}); err == nil ||
		!strings.Contains(err.Error(), "no performance store") {
		t.Fatalf("publish without a store: err = %v, want refusal", err)
	}

	ps, err := perfstore.New(avis.Spec(), nil, perfstore.NewMemStore(), perfstore.Options{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	coord.SetPerfStore(ps)

	// A batch with one malformed sample: the good ones land, the bad one
	// is skipped without poisoning the batch.
	n, err := r.PublishSamples([]perfstore.WireSample{
		sample("c=bzw,dR=320,l=2", 3),
		sample("c=zzz,dR=320,l=2", 3), // unknown codec symbol
		sample("c=bzw,dR=320,l=2", 3.4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("accepted %d samples, want 2", n)
	}

	p, err := r.FetchProfile("c=bzw,dR=320,l=2")
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || len(p.Records) != 1 {
		t.Fatalf("fetched profile %+v, want one refined record", p)
	}
	rec := p.Records[0]
	if rec.Samples != 2 {
		t.Fatalf("record folded %d samples, want 2", rec.Samples)
	}
	got := rec.Metrics["transmit_time"]
	if got <= 3 || got >= 3.4 {
		t.Fatalf("refined transmit_time %v, want between the two observations", got)
	}

	// A configuration nothing has reported on has no overlay.
	if _, err := r.FetchProfile("c=lzw,dR=80,l=4"); err == nil ||
		!strings.Contains(err.Error(), "no refined profile") {
		t.Fatalf("fetch of unreported config: err = %v, want refusal", err)
	}
}

// TestIngestSamplesCountsNaNInvalid: the binary control codec carries a
// NaN metric intact, so the coordinator queues the sample; the store must
// count it invalid and fold nothing.
func TestIngestSamplesCountsNaNInvalid(t *testing.T) {
	coord := NewCoordinator(Config{})
	ps, err := perfstore.New(avis.Spec(), nil, perfstore.NewMemStore(), perfstore.Options{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	reg := metrics.New()
	ps.EnableMetrics(reg)
	coord.SetPerfStore(ps)

	n, err := coord.IngestSamples([]perfstore.WireSample{{
		Config:    "c=bzw,dR=320,l=2",
		Resources: map[string]float64{"cpu": 0.5, "bandwidth": 100e3},
		Metrics:   map[string]float64{"transmit_time": math.NaN()},
	}})
	if err != nil || n != 1 {
		t.Fatalf("IngestSamples = %d, %v; want the sample queued", n, err)
	}
	invalid := reg.Counter("perfstore_samples_total", "", metrics.L("verdict", "invalid")).Value()
	accepted := reg.Counter("perfstore_samples_total", "", metrics.L("verdict", "accepted")).Value()
	if invalid != 1 || accepted != 0 {
		t.Fatalf("verdicts: %v invalid, %v accepted; want 1 and 0", invalid, accepted)
	}
	if _, err := coord.PerfProfile("c=bzw,dR=320,l=2"); err == nil {
		t.Fatal("a NaN sample was folded into a profile")
	}
}
