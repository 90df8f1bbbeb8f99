// Command bench is the end-to-end benchmark of this repository: six named
// workloads over real-TCP sessions, the adaptation loop and the control
// plane, each reporting the same end-to-end metrics, plus a traced run that
// attributes the time to layers. See README.md in this directory.
//
//	go run ./bench                         # every workload, one JSON document
//	go run ./bench -workload edge-revisit  # one workload: last stdout line is
//	                                       # {"correct","attempted","failed","metrics"}
//	go run ./bench -trace                  # also the per-layer metrics and a span file
//	go run ./bench -list                   # every metric and workload by name
//	go run ./bench -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is the measured window per workload; BENCHMARK.json's
// run_seconds repeats it.
const defaultSeconds = 10

// buildDir, in the working directory, holds everything a run leaves
// behind: span files and the WAL probe's scratch directory.
const buildDir = ".bench_build"

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind a timing
}

// workloadDoc is one workload's section of the document.
type workloadDoc struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailRatio float64                `json:"fail_ratio"`
	Correct   bool                   `json:"correct"`
	Problems  []string               `json:"problems,omitempty"`
	Passes    int                    `json:"passes,omitempty"`
	OpTail    *timing                `json:"op_tail_ms,omitempty"`
	Metrics   map[string]metricValue `json:"metrics,omitempty"`
	Layers    map[string]metricValue `json:"layers,omitempty"`
}

// document is what one invocation measured.
type document struct {
	Commit     string                  `json:"commit"`
	Go         string                  `json:"go"`
	NProc      int                     `json:"nproc"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Seed       int64                   `json:"seed"`
	Seconds    float64                 `json:"seconds"`
	Workloads  map[string]*workloadDoc `json:"workloads"`
}

// contractLine is the single-workload result line the acceptance driver
// reads: exactly these keys.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

// contractValue is a metric as the driver reads it: value and unit only.
type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractMetrics(m map[string]metricValue) map[string]contractValue {
	out := make(map[string]contractValue, len(m))
	for k, v := range m {
		out[k] = contractValue{v.Value, v.Unit}
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// normalizeTrace lets -trace be both a bare switch and take a value as a
// separate argument ("--trace 1"), which the flag package's boolean flags
// do not accept.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// run is main without the exit: results go to stdout, progress and errors
// to standard error.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		names    = fs.String("workload", "", "comma-separated workloads to run (default: all)")
		seed     = fs.Int64("seed", 1, "seed of every generated request sequence, fixation trace and fault schedule")
		seconds  = fs.Float64("seconds", defaultSeconds, "measured window per workload")
		trace    = fs.Bool("trace", false, "traced run: per-layer metrics and a span file")
		traceOut = fs.String("trace-out", filepath.Join(buildDir, "trace-%s.jsonl"), "span file of the traced run; %s is the workload")
		out      = fs.String("out", "", "also write the JSON document here")
		list     = fs.Bool("list", false, "print every workload and metric, then exit")
		compare  = fs.Bool("compare", false, "compare documents: -compare old.json[,more] new.json[,more]")
		short    = fs.Bool("short", false, "tens of ops per workload (smoke size; numbers are meaningless)")
	)
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	if *list {
		printList(stdout)
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two arguments: old.json[,…] new.json[,…]")
			return 2
		}
		return compareDocs(stdout, strings.Split(fs.Arg(0), ","), strings.Split(fs.Arg(1), ","))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}

	selected := workloads
	if *names != "" {
		selected = nil
		for _, n := range strings.Split(*names, ",") {
			w := findWorkload(n)
			if w == nil {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", n)
				return 2
			}
			selected = append(selected, *w)
		}
	}
	single := *names != "" && len(selected) == 1

	// The load shape assumes two cores: two closed-loop clients, and a
	// server goroutine per client.
	runtime.GOMAXPROCS(2)
	doc := &document{
		Go: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: *seconds,
		Workloads: map[string]*workloadDoc{},
	}
	status := 0
	var line contractLine
	for _, w := range selected {
		wd := &workloadDoc{}
		doc.Workloads[w.Name] = wd
		// A single workload is the driver's form: -trace picks which of the
		// two runs it wants. The document form makes both.
		runs := []bool{false}
		if *trace && single {
			runs = []bool{true}
		} else if *trace {
			runs = []bool{false, true}
		}
		for _, traced := range runs {
			rc := &runCtx{seed: *seed, seconds: *seconds, trace: traced, short: *short}
			rc.logf("%s: seed %d, %gs, trace %v", w.Name, rc.seed, rc.seconds, traced)
			res, err := w.run(rc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
			wd.fill(res, traced)
			if res.rec != nil && *traceOut != "" {
				path := strings.ReplaceAll(*traceOut, "%s", w.Name)
				err := os.MkdirAll(filepath.Dir(path), 0o755)
				if err == nil {
					err = res.rec.writeJSONL(path)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
			}
			for _, p := range res.problems {
				rc.logf("%s: INCORRECT: %s", w.Name, p)
			}
			if !res.correct() {
				status = 1
			}
			line = contractLine{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: contractMetrics(wd.Metrics)}
			if traced {
				line.Metrics = contractMetrics(wd.Layers)
			}
		}
	}

	if *out != "" || !single {
		doc.Commit = commit()
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if single {
		// The result was measured and is printed, so the exit code is 0 even
		// when an output was wrong: "correct" and "failed" carry that.
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
		return 0
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return status
}

// fill copies one run's result into the workload's section.
func (wd *workloadDoc) fill(res *result, traced bool) {
	wd.Attempted += res.attempted
	wd.Failed += res.failed
	if wd.Attempted > 0 {
		wd.FailRatio = float64(wd.Failed) / float64(wd.Attempted)
	}
	wd.Problems = append(wd.Problems, res.problems...)
	wd.Correct = len(wd.Problems) == 0 && wd.Failed == 0
	if traced {
		wd.Layers = map[string]metricValue{}
		for _, d := range perLayer {
			wd.Layers[d.Name] = metricValue{Value: res.layers[d.Name], Unit: d.Unit}
		}
		for name := range res.layers {
			if _, ok := wd.Layers[name]; !ok {
				panic("bench: layer metric " + name + " is not in the metric table")
			}
		}
		return
	}
	wd.Passes = len(res.passes)
	t := summarize(res.ops)
	wd.OpTail = &t
	wd.Metrics = map[string]metricValue{}
	vals := res.endToEnd()
	for _, d := range endToEnd {
		mv := metricValue{Value: vals[d.Name], Unit: d.Unit}
		switch d.Name {
		case "setup_s":
			mv.N = len(res.setup)
		case "op_p50_ms", "op_p95_ms":
			mv.N = len(res.ops)
		case "unit_p50_ms":
			mv.N = len(res.units)
		case "ops_per_s", "allocs_per_op":
			mv.N = len(res.passes)
		}
		wd.Metrics[d.Name] = mv
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit names the checked-out revision, or "unknown" outside a git
// checkout (the acceptance driver's checkouts are not repositories).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printList prints the metric table -list promises, as JSON.
func printList(w io.Writer) {
	b, err := json.MarshalIndent(struct {
		Workloads []workloadDef `json:"workloads"`
		EndToEnd  []metricDef   `json:"end_to_end"`
		PerLayer  []metricDef   `json:"per_layer"`
	}{workloads, endToEnd, perLayer}, "", "  ")
	if err != nil {
		panic(err) // static tables of strings and numbers always marshal
	}
	fmt.Fprintln(w, string(b))
}
