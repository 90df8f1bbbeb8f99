package apps

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// The mix is pinned beyond one golden report: testdata/mix.sha256 holds
// the sha256 of the JSON MixReport of every (shape, seed, chaos) run
// below, committed from an earlier harness. A change to planning,
// arbitration, admission, steering or the applications that moves any
// report moves a hash; a moved hash means moved behaviour, never
// "regenerate".

const (
	mixPinSeeds = 16
	mixPinFile  = "testdata/mix.sha256"
)

// mixPinShape is one harness shape of the pinned runs.
type mixPinShape struct {
	name          string
	hosts         int
	linkPool      float64
	video, foveal int
	videoEvery    time.Duration
	fovealEvery   time.Duration
	chaosHorizon  time.Duration
}

var mixPinShapes = []mixPinShape{
	// The benchmark's mix-contention shape: every session admitted, the
	// classes contending for the link, plans derated.
	{"contention", 16, 4.8e6, 16, 8, 75 * time.Millisecond, 125 * time.Millisecond, 20 * time.Second},
	// avis-mix's defaults at 4 video + 2 foveal (scripts/golden/avis-mix.txt
	// is its seed-42 chaos run).
	{"small", 4, 1.5e6, 4, 2, 400 * time.Millisecond, 400 * time.Millisecond, 20 * time.Second},
	// A video flood the arbiter refuses in part.
	{"flood", 8, 1.6e6, 16, 4, 100 * time.Millisecond, 400 * time.Millisecond, 10 * time.Second},
}

// mixPinRun is one pinned (shape, seed, chaos) run.
type mixPinRun struct {
	shape mixPinShape
	seed  uint64
	chaos bool
}

// mixPinRuns lists the pinned runs in testdata/mix.sha256's order.
func mixPinRuns() []mixPinRun {
	var runs []mixPinRun
	for _, sh := range mixPinShapes {
		for seed := uint64(1); seed <= mixPinSeeds; seed++ {
			for _, chaos := range []bool{false, true} {
				runs = append(runs, mixPinRun{sh, seed, chaos})
			}
		}
	}
	return runs
}

// hash runs r and returns its "shape seed clean|chaos sha256" line.
func (r mixPinRun) hash(video, foveal Application) (string, error) {
	sh := r.shape
	cfg := HarnessConfig{
		Seed: r.seed, Hosts: sh.hosts, LinkPool: sh.linkPool,
		Classes: []ClassConfig{
			{App: video, Sessions: sh.video, ArrivalEvery: sh.videoEvery},
			{App: foveal, Sessions: sh.foveal, ArrivalEvery: sh.fovealEvery},
		},
	}
	mode := "clean"
	if r.chaos {
		s := MixChaos(r.seed, sh.chaosHorizon)
		cfg.Chaos, mode = &s, "chaos"
	}
	rep, err := RunMix(cfg)
	if err != nil {
		return "", fmt.Errorf("%s seed %d %s: %w", sh.name, r.seed, mode, err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s %d %s %x", sh.name, r.seed, mode, sha256.Sum256(b)), nil
}

// mixPins reads testdata/mix.sha256's lines.
func mixPins(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(mixPinFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// checkPins compares the hashed lines with the pinned ones.
func checkPins(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d runs hashed, %s pins %d", len(got), mixPinFile, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("mix report moved: got %q, pinned %q", got[i], want[i])
		}
	}
}

func TestMixReportsPinned(t *testing.T) {
	video, foveal := NewVideo(), NewFoveal()
	var got []string
	for _, r := range mixPinRuns() {
		line, err := r.hash(video, foveal)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, line)
	}
	checkPins(t, got, mixPins(t))
}

// The virtual-time kernel's workers are pooled across simulations on every
// goroutine. Running the pinned mixes on four goroutines at once, at
// GOMAXPROCS 1, the default and 8, must hash every report to its pin: no
// state may leak from one simulation into another through the pool.
func TestMixReportsPinnedConcurrently(t *testing.T) {
	want := mixPins(t)
	runs := mixPinRuns()
	for _, procs := range []int{0, 1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got := make([]string, len(runs))
		next := make(chan int)
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				video, foveal := NewVideo(), NewFoveal()
				for i := range next {
					line, err := runs[i].hash(video, foveal)
					if err != nil {
						t.Error(err)
					}
					got[i] = line
				}
			}()
		}
		for i := range runs {
			next <- i
		}
		close(next)
		wg.Wait()
		runtime.GOMAXPROCS(prev)
		checkPins(t, got, want)
	}
}
