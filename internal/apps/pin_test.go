package apps

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
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

// mixReportHashes runs every pinned (shape, seed, chaos) and returns one
// "shape seed clean|chaos sha256" line per run.
func mixReportHashes(t *testing.T) []string {
	video, foveal := NewVideo(), NewFoveal()
	var lines []string
	for _, sh := range mixPinShapes {
		for seed := uint64(1); seed <= mixPinSeeds; seed++ {
			for _, chaos := range []bool{false, true} {
				cfg := HarnessConfig{
					Seed: seed, Hosts: sh.hosts, LinkPool: sh.linkPool,
					Classes: []ClassConfig{
						{App: video, Sessions: sh.video, ArrivalEvery: sh.videoEvery},
						{App: foveal, Sessions: sh.foveal, ArrivalEvery: sh.fovealEvery},
					},
				}
				mode := "clean"
				if chaos {
					s := MixChaos(seed, sh.chaosHorizon)
					cfg.Chaos, mode = &s, "chaos"
				}
				rep, err := RunMix(cfg)
				if err != nil {
					t.Fatalf("%s seed %d %s: %v", sh.name, seed, mode, err)
				}
				b, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, fmt.Sprintf("%s %d %s %x", sh.name, seed, mode, sha256.Sum256(b)))
			}
		}
	}
	return lines
}

func TestMixReportsPinned(t *testing.T) {
	got := mixReportHashes(t)
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
	if len(got) != len(want) {
		t.Fatalf("%d runs hashed, %s pins %d", len(got), mixPinFile, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("mix report moved: got %q, pinned %q", got[i], want[i])
		}
	}
}
