package scheduler

import (
	"testing"

	"tunable/internal/resource"
)

func TestSelectDeratedPlansAgainstReducedResources(t *testing.T) {
	app := codecApp()
	db := buildDB(t, app)
	s, err := New(app, db, []Preference{{
		Name:        "fast",
		Constraints: []Constraint{atLeast4},
		Objective:   "transmit_time",
	}})
	if err != nil {
		t.Fatal(err)
	}
	// At 250 kB/s lzw wins (transfer still fast enough that bzw's CPU cost
	// dominates). Derated by 90% the effective bandwidth is 25 kB/s, where
	// the stronger bzw compression wins — the conservative pick for an
	// estimate the monitor no longer trusts.
	full, err := s.Select(resource.Vector{resource.Bandwidth: 250e3})
	if err != nil {
		t.Fatal(err)
	}
	if full.Config["c"].S != "lzw" {
		t.Fatalf("full-trust selection %s, want lzw", full.Config.Key())
	}
	der, err := s.SelectDerated(resource.Vector{resource.Bandwidth: 250e3}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if der.Config["c"].S != "bzw" {
		t.Fatalf("derated selection %s, want bzw under 10%% of the estimate", der.Config.Key())
	}
}

func TestSelectDeratedClampsMargin(t *testing.T) {
	app := codecApp()
	db := buildDB(t, app)
	s, err := New(app, db, []Preference{{Name: "fast", Objective: "transmit_time"}})
	if err != nil {
		t.Fatal(err)
	}
	// margin ≤ 0 degenerates to Select; margin ≥ 1 must not zero the vector.
	if _, err := s.SelectDerated(resource.Vector{resource.Bandwidth: 100e3}, -1); err != nil {
		t.Fatalf("negative margin: %v", err)
	}
	if _, err := s.SelectDerated(resource.Vector{resource.Bandwidth: 100e3}, 5); err != nil {
		t.Fatalf("excess margin: %v", err)
	}
}
