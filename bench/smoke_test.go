package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestMain lets the test binary serve as the harness's child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

// smokeTable is a tiny stand-in for the benchmark's workloads: one
// engine workload over two designs and one two-rank fleet.
var smokeTable = []workload{
	{Name: "tiny_engine", Designs: []string{"uart_rx", "alu"}, Interval: 100, Threshold: 2, Vectors: 600, RepSeconds: 10},
	{Name: "tiny_fleet", Designs: []string{"uart_rx"}, Interval: 100, Threshold: 2, Vectors: 400, Ranks: 2, RepSeconds: 10},
}

// fullSpec is BENCHMARK.json with the fields the benchmark defines.
type fullSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundDef  `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestSpecMatchesBenchmark pins BENCHMARK.json to the code: the same
// workloads, run length and metrics, and set-up time holding the
// widest bound.
func TestSpecMatchesBenchmark(t *testing.T) {
	var spec fullSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the benchmark's default %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i := range spec.Workloads {
		if i < len(workloads) && spec.Workloads[i].Name != workloads[i].Name {
			t.Errorf("workload %d is %q, the benchmark's %q", i, spec.Workloads[i].Name, workloads[i].Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the benchmark %s [%s, %s]", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
		}
	}
	var e2e []metricDef
	var setup, widest float64
	for _, b := range spec.EndToEnd {
		e2e = append(e2e, metricDef{Name: b.Name, Unit: b.Unit, Better: b.Better})
		if b.Bound <= 0 || b.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", b.Name, b.Bound)
		}
		if b.Name == "setup_s" {
			setup = b.Bound
		}
		widest = max(widest, b.Bound)
	}
	if setup != widest {
		t.Errorf("setup_s bound %v, want the widest, %v", setup, widest)
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestBenchSmoke(t *testing.T) {
	out := t.TempDir()
	var stdout bytes.Buffer
	if code := benchMain([]string{"-seed", "1", "-seconds", "1", "-out", out}, smokeTable, &stdout); code != 0 {
		t.Fatalf("bench exited %d:\n%s", code, stdout.String())
	}
	text := stdout.String()
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		re := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.Name) + ` +` + regexp.QuoteMeta(d.Unit) + ` `)
		if n := len(re.FindAllString(text, -1)); n != len(smokeTable) {
			t.Errorf("%s [%s] printed %d times, want once per workload", d.Name, d.Unit, n)
		}
	}

	var rf resultFile
	if err := readJSON(filepath.Join(out, "result.json"), &rf); err != nil {
		t.Fatal(err)
	}
	for _, w := range smokeTable {
		wr := rf.Workloads[w.Name]
		if wr == nil {
			t.Fatalf("%s missing from result.json", w.Name)
		}
		if wr.Failed != 0 {
			t.Errorf("%s: %d of %d runs failed: %v", w.Name, wr.Failed, wr.Attempted, wr.Failures)
		}
		if fi, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no span file (%v)", w.Name, err)
		}
		for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
			line, err := resultLine(wr, traced)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   *bool                 `json:"correct"`
				Attempted int                   `json:"attempted"`
				Failed    *int                  `json:"failed"`
				Metrics   map[string]lineMetric `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if got.Correct == nil || !*got.Correct || got.Failed == nil || got.Attempted != 3 || len(got.Metrics) != len(defs) {
				t.Errorf("%s: malformed result line %s", w.Name, line)
			}
			for _, d := range defs {
				if m, ok := got.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s: result line lacks %s [%s]", w.Name, d.Name, d.Unit)
				}
			}
		}
	}
	fl := rf.Workloads["tiny_fleet"]
	if fl.Wire == nil || fl.PerLayer["dist.rpcs"].Value == 0 || fl.PerLayer["dist.rpc_wait_frac"].Value <= 0 {
		t.Errorf("the traced fleet run recorded no wire time: %+v", fl.Wire)
	}
}
