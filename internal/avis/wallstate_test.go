package avis_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"tunable/internal/apps"
	"tunable/internal/avis"
	"tunable/internal/expt"
	"tunable/internal/perfstore"
)

// simulated is what the virtual-time workloads return: the three
// adaptation experiments, the online drift run at two seeds, and one mix
// seed clean and under chaos as its JSON report.
type simulated struct {
	exp   [3]*expt.ExperimentResult
	drift [2]expt.RunResult
	mix   [2][]byte
}

func runSimulated(t *testing.T, video *apps.Video, foveal *apps.Foveal) simulated {
	t.Helper()
	var s simulated
	var err error
	for i, fn := range []func() (*expt.ExperimentResult, error){expt.Experiment1, expt.Experiment2, expt.Experiment3} {
		if s.exp[i], err = fn(); err != nil {
			t.Fatalf("experiment %d: %v", i+1, err)
		}
	}
	for i, seed := range []uint64{1, 7} {
		var ps *perfstore.PerfStore
		if s.drift[i], ps, err = expt.RunDriftOnline(seed, perfstore.NewMemStore()); err != nil {
			t.Fatalf("drift seed %d: %v", seed, err)
		}
		_ = ps.Close()
	}
	for i, chaos := range []bool{false, true} {
		cfg := apps.HarnessConfig{Seed: 3, Hosts: 16, LinkPool: 4.8e6, Classes: []apps.ClassConfig{
			{App: video, Sessions: 16, ArrivalEvery: 75 * time.Millisecond},
			{App: foveal, Sessions: 8, ArrivalEvery: 125 * time.Millisecond},
		}}
		if chaos {
			sched := apps.MixChaos(cfg.Seed, 20*time.Second)
			cfg.Chaos = &sched
		}
		rep, err := apps.RunMix(cfg)
		if err != nil {
			t.Fatalf("mix chaos=%v: %v", chaos, err)
		}
		if s.mix[i], err = json.Marshal(rep); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestSimulatedResultsIndependentOfWallState: the decode memo saves wall
// time only. Every virtual-time workload returns exactly the same results
// with the memo cold, warm and switched off, at GOMAXPROCS 1 and 8.
func TestSimulatedResultsIndependentOfWallState(t *testing.T) {
	video, foveal := apps.NewVideo(), apps.NewFoveal()
	defer avis.SetDecodeMemo(avis.SetDecodeMemo(nil))
	var want *simulated
	for _, procs := range []int{1, 8} {
		memo := avis.NewDecodeMemo()
		for _, state := range []struct {
			name string
			memo *avis.DecodeMemo
		}{{"cold", memo}, {"warm", memo}, {"off", nil}} {
			label := fmt.Sprintf("GOMAXPROCS %d, memo %s", procs, state.name)
			prev := runtime.GOMAXPROCS(procs)
			avis.SetDecodeMemo(state.memo)
			got := runSimulated(t, video, foveal)
			runtime.GOMAXPROCS(prev)
			if want == nil {
				want = &got
				continue
			}
			for i := range got.exp {
				if !reflect.DeepEqual(got.exp[i], want.exp[i]) {
					t.Errorf("%s: Experiment%d differs", label, i+1)
				}
			}
			for i := range got.drift {
				if !reflect.DeepEqual(got.drift[i], want.drift[i]) {
					t.Errorf("%s: drift run %d differs:\n%+v\n%+v", label, i, got.drift[i], want.drift[i])
				}
			}
			for i := range got.mix {
				if !bytes.Equal(got.mix[i], want.mix[i]) {
					t.Errorf("%s: mix report %d differs:\n%s\n%s", label, i, got.mix[i], want.mix[i])
				}
			}
		}
	}
}
