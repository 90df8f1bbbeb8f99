package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// Every workload, at smoke size (tens of ops), untraced and traced: no op
// fails, every correctness check holds, every end-to-end metric is reported
// and non-zero, and every layer metric emitted is one the table declares.
func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			slow := w.Name == "adapt-cycle" // its experiments have one size: ~10 s a cycle
			if slow && testing.Short() {
				t.Skip("the adaptation cycle cannot be shrunk; skipped under -short")
			}
			for _, traced := range []bool{false, true} {
				rc := &runCtx{seed: 5, seconds: 1, trace: traced, short: true, quiet: true}
				res, err := w.run(rc)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				if res.attempted == 0 || res.failed != 0 || !res.correct() {
					t.Fatalf("trace=%v: attempted %d, failed %d, problems %v", traced, res.attempted, res.failed, res.problems)
				}
				wd := &workloadDoc{}
				wd.fill(res, traced) // panics on a layer name outside the table
				if traced {
					if res.rec == nil || len(res.rec.spans) == 0 {
						t.Error("the traced run recorded no spans")
					}
					if v := wd.Layers["trace.overhead_ratio"].Value; v <= 0 {
						t.Errorf("trace.overhead_ratio = %v", v)
					}
					nonzero := 0
					for _, v := range wd.Layers {
						if v.Value != 0 {
							nonzero++
						}
					}
					if nonzero < 10 {
						t.Errorf("only %d layer metrics are non-zero", nonzero)
					}
					continue
				}
				for _, d := range endToEnd {
					if v := wd.Metrics[d.Name].Value; !(v > 0) {
						t.Errorf("%s = %v, want a positive number", d.Name, v)
					}
				}
			}
		})
	}
}

// The single-workload form ends its standard output with one JSON object
// of exactly the four keys the acceptance driver reads, carrying every
// end-to-end metric untraced and every per-layer metric traced; "--trace 1"
// is accepted as two arguments.
func TestDriverLine(t *testing.T) {
	for _, traced := range []string{"0", "1"} {
		var out bytes.Buffer
		dir := t.TempDir()
		args := []string{"--workload", "control-resolve", "--seed", "2", "--seconds", "1", "--trace", traced,
			"-short", "-trace-out", filepath.Join(dir, "spans-%s.jsonl")}
		if code := run(args, &out); code != 0 {
			t.Fatalf("trace %s: exit code %d", traced, code)
		}
		spans, _ := filepath.Glob(filepath.Join(dir, "spans-*.jsonl"))
		if wantFile := traced == "1"; (len(spans) == 1) != wantFile {
			t.Errorf("trace %s: span files %v", traced, spans)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("trace %s: last line %q: %v", traced, lines[len(lines)-1], err)
		}
		if len(got) != 4 {
			t.Errorf("trace %s: keys %v, want exactly correct, attempted, failed, metrics", traced, got)
		}
		var line contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("trace %s: %+v", traced, line)
		}
		want := endToEnd
		if traced == "1" {
			want = perLayer
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", traced, len(line.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s: %+v", traced, d.Name, m)
			}
		}
	}
}

func TestNormalizeTrace(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"--trace 1 -seed 3", "-trace=1 -seed 3"},
		{"-trace 0", "-trace=0"},
		{"-trace", "-trace"},
		{"-trace -seed 3", "-trace -seed 3"},
		{"-trace=true -workload a", "-trace=true -workload a"},
	} {
		if got := strings.Join(normalizeTrace(strings.Fields(c.in)), " "); got != c.want {
			t.Errorf("normalizeTrace(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
