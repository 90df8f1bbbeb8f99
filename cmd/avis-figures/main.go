// Command avis-figures regenerates the paper's figures as text tables and
// time series, running every underlying experiment on the deterministic
// virtual-time testbed.
//
// Usage:
//
//	avis-figures            # all figures
//	avis-figures -fig 6a    # one figure
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"tunable/internal/avis"
	"tunable/internal/expt"
)

func main() {
	fig := flag.String("fig", "all", "figure id: 3a 3b 4a 4b 5a 5b 6a 6b 7a 7b 7c 7d, or all")
	flag.Parse()

	type genFunc func() (*expt.FigResult, error)
	gens := map[string]genFunc{
		"3a": expt.Figure3a,
		"3b": expt.Figure3b,
		"4a": expt.Figure4a,
		"4b": expt.Figure4b,
		"5a": expt.Figure5a,
		"5b": expt.Figure5b,
		"6a": expt.Figure6a,
		"6b": expt.Figure6b,
		"7a": func() (*expt.FigResult, error) {
			e, err := expt.Experiment1()
			if err != nil {
				return nil, err
			}
			return e.Fig, nil
		},
		"7b": func() (*expt.FigResult, error) {
			e, err := expt.Experiment2()
			if err != nil {
				return nil, err
			}
			return e.Fig, nil
		},
	}
	// 7c and 7d share one experiment run.
	run7cd := func() (*expt.FigResult, *expt.FigResult, error) {
		e, err := expt.Experiment3()
		if err != nil {
			return nil, nil, err
		}
		return e.Fig, expt.Figure7d(e), nil
	}

	order := []string{"3a", "3b", "4a", "4b", "5a", "5b", "6a", "6b", "7a", "7b", "7c", "7d"}
	valid := map[string]bool{}
	for _, id := range order {
		valid[id] = true
	}
	want := map[string]bool{}
	if *fig == "all" {
		want = valid
	} else {
		if !valid[*fig] {
			log.Fatalf("avis-figures: unknown figure %q (want one of %v or all)", *fig, order)
		}
		want[*fig] = true
	}

	var f7c, f7d *expt.FigResult
	for _, id := range order {
		if !want[id] {
			continue
		}
		var res *expt.FigResult
		var err error
		switch id {
		case "7c", "7d":
			if f7c == nil {
				f7c, f7d, err = run7cd()
				if err != nil {
					log.Fatalf("avis-figures: %s: %v", id, err)
				}
			}
			if id == "7c" {
				res = f7c
			} else {
				res = f7d
			}
		default:
			gen, ok := gens[id]
			if !ok {
				log.Fatalf("avis-figures: unknown figure %q", id)
			}
			res, err = gen()
			if err != nil {
				log.Fatalf("avis-figures: %s: %v", id, err)
			}
		}
		if err := res.Render(os.Stdout); err != nil {
			log.Fatalf("avis-figures: render %s: %v", id, err)
		}
	}
	fmt.Fprintf(os.Stderr, "avis-figures: %v; %v\n", expt.EncodedStats(), avis.ClientDecodeStats())
}
