package main

import (
	"reflect"
	"testing"

	"tunable/internal/avis"
)

func imageSeq(seed int64, client, n int) []int {
	r := imageOrder(seed, client)
	out := make([]int, n)
	for i := range out {
		out[i] = r.Intn(numImages)
	}
	return out
}

func fixationSeq(seed int64, client, n int) []fixation {
	tr := newFixationTrace(seed, client)
	out := make([]fixation, n)
	for i := range out {
		out[i] = tr.next()
	}
	return out
}

// The same seed gives the same inputs; another seed, or another client of
// the same seed, gives different ones.
func TestGeneratedSequencesFollowTheSeed(t *testing.T) {
	if a, b := imageSeq(7, 0, 200), imageSeq(7, 0, 200); !reflect.DeepEqual(a, b) {
		t.Error("image order differs between two runs of one seed")
	}
	if a, b := imageSeq(7, 0, 200), imageSeq(8, 0, 200); reflect.DeepEqual(a, b) {
		t.Error("image order is the same for two seeds")
	}
	if a, b := imageSeq(7, 0, 200), imageSeq(7, 1, 200); reflect.DeepEqual(a, b) {
		t.Error("both clients of one seed fetch the same image order")
	}
	if a, b := fixationSeq(7, 0, 500), fixationSeq(7, 0, 500); !reflect.DeepEqual(a, b) {
		t.Error("fixation trace differs between two runs of one seed")
	}
	if a, b := fixationSeq(7, 0, 500), fixationSeq(8, 0, 500); reflect.DeepEqual(a, b) {
		t.Error("fixation trace is the same for two seeds")
	}
	if a, b := newResolverClient(nil, 7, 0).sids, newResolverClient(nil, 8, 0).sids; reflect.DeepEqual(a, b) {
		t.Error("session ids are the same for two seeds")
	}
}

func TestFixationTraceShape(t *testing.T) {
	seen := map[int]int{}
	fine := 0
	for _, f := range fixationSeq(3, 0, 4000) {
		if f.img < 0 || f.img >= numImages || f.x < fixMargin || f.x > imgSide-fixMargin || f.y < fixMargin || f.y > imgSide-fixMargin {
			t.Fatalf("fixation out of range: %+v", f)
		}
		seen[f.key]++
		if f.fine {
			fine++
		}
	}
	if fine != 4000/fineEvery {
		t.Errorf("%d fine fixations in 4000, want every %dth", fine, fineEvery)
	}
	// Zipf: a few keys take most visits, yet the tail is long.
	top := 0
	for _, n := range seen {
		if n > top {
			top = n
		}
	}
	if top < 200 || len(seen) < 400 {
		t.Errorf("hottest key visited %d times, %d distinct keys: not a Zipf trace over a large working set", top, len(seen))
	}

	geom := avis.Geometry{Side: imgSide, Levels: imgLevels, NumImages: numImages}
	coarse := avis.PlanRounds(geom, edgeParams, 0, 0)[:coarsePerFix]
	reqs := fixationRounds(coarse, fixation{img: 2, x: 80, y: 944, fine: true}, nil)
	if len(reqs) != coarsePerFix+1 {
		t.Fatalf("%d rounds for a fine fixation, want %d", len(reqs), coarsePerFix+1)
	}
	for i, r := range reqs {
		if r.Image != 2 || r.X != 80 || r.Y != 944 || r.R <= r.PrevR {
			t.Errorf("round %d: %+v", i, r)
		}
		if want := edgeParams.Level; i < coarsePerFix && r.Level != want {
			t.Errorf("coarse round %d at level %d, want %d", i, r.Level, want)
		}
	}
	if reqs[coarsePerFix].Level != imgLevels {
		t.Errorf("fine round at level %d, want %d", reqs[coarsePerFix].Level, imgLevels)
	}
}
