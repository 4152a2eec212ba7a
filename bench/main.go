// Command bench is the end-to-end campaign benchmark: it runs fuzzing
// campaigns on fixed workloads, checks that their outputs are correct,
// and prints every end-to-end and per-layer metric with its unit.
//
// From the repository root:
//
//	bash bench/run.sh --seed 1                 # every workload, interleaved
//	bash bench/run.sh --workload soc_guided --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh -compare base.json new.json
//
// Each rep runs in a fresh child process (the binary re-executed with
// the generated job on stdin), which isolates GC state and max RSS. A
// run writes out/result.json and, per traced workload,
// out/trace-<workload>.jsonl. See README.md for the metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// runSeconds is the default measuring budget per workload, the
// run_seconds of BENCHMARK.json.
const runSeconds = 25

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain())
	}
	os.Exit(benchMain(os.Args[1:], workloads, os.Stdout))
}

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds int
	traced  bool
	out     string
}

func benchMain(args []string, table []workload, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload and end with its result as one JSON line (default: every workload, interleaved)")
	seed := fs.Int64("seed", 1, "benchmark seed; every campaign seed derives from it")
	seconds := fs.Int("seconds", runSeconds, "measuring budget per workload, which sets its rep count")
	trace := fs.Int("trace", 1, "1: also make the traced run and report per-layer metrics; 0: untraced reps only")
	out := fs.String("out", "out", "directory for result.json and the span files")
	compare := fs.Bool("compare", false, "compare result files by the bounds of ./BENCHMARK.json: -compare base.json[,base2.json...] new.json[,new2.json...]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs a base and a new list of result files")
			return 2
		}
		return compareMain(strings.Split(fs.Arg(0), ","), strings.Split(fs.Arg(1), ","), stdout)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out}
	ws := table
	if *name != "" {
		w, err := findWorkload(table, *name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		ws = []workload{w}
	}
	rf, err := runBench(opts, ws)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, w := range ws {
		printWorkload(stdout, w.Name, rf.Workloads[w.Name])
	}
	path := filepath.Join(opts.out, "result.json")
	if err := writeJSON(path, rf); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "result: %s\n", path)
	if *name == "" {
		return 0
	}
	line, err := resultLine(rf.Workloads[*name], opts.traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// wlResult is one workload's outcome.
type wlResult struct {
	Reps       int     `json:"reps"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	FailedFrac float64 `json:"failed_frac"`
	// Failures says why each failed run failed.
	Failures []string                `json:"failures,omitempty"`
	EndToEnd map[string]metricResult `json:"end_to_end"`
	PerLayer map[string]metricResult `json:"per_layer,omitempty"`
	// Wire is the traced fleet run's RPC summary.
	Wire *wireStats `json:"wire,omitempty"`
}

// resultFile is what a run writes to out/result.json.
type resultFile struct {
	Schema    string `json:"schema"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// VCSRevision is the commit the benchmark was built from, when it
	// was built inside a git checkout.
	VCSRevision string               `json:"vcs_revision,omitempty"`
	VCSModified bool                 `json:"vcs_modified,omitempty"`
	Workloads   map[string]*wlResult `json:"workloads"`
}

const resultSchema = "symbfuzz-bench/v1"

// plan is one workload's jobs and their outcomes: n sample reps, a
// check job, then (optionally) the traced run.
type plan struct {
	w    workload
	n    int
	jobs []job
	res  []*childResult
	errs []error
	// check is the job whose reports must equal rep 0's; traced is the
	// traced job, -1 when there is none.
	check, traced int
}

// runBench runs every workload's jobs, interleaved round-robin so that
// drift on a shared machine hits every workload alike, then checks and
// summarizes them.
func runBench(opts options, ws []workload) (*resultFile, error) {
	limit := 20 * time.Minute
	if len(ws) == 1 {
		// A single-workload run must end within three minutes.
		limit = 170 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	work := filepath.Join(opts.out, "work")
	defer os.RemoveAll(work)

	plans := make([]*plan, len(ws))
	for i, w := range ws {
		plans[i] = newPlan(w, opts, work)
	}
	for k := 0; ; k++ {
		ran := false
		for _, p := range plans {
			if k >= len(p.jobs) {
				continue
			}
			ran = true
			p.res[k], p.errs[k] = runChild(ctx, p.jobs[k])
		}
		if !ran {
			break
		}
	}
	rf := &resultFile{
		Schema: resultSchema, Seed: opts.seed, Seconds: opts.seconds,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Workloads: map[string]*wlResult{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rf.VCSRevision = s.Value
			case "vcs.modified":
				rf.VCSModified = s.Value == "true"
			}
		}
	}
	for _, p := range plans {
		wr, err := p.summarize()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.w.Name, err)
		}
		rf.Workloads[p.w.Name] = wr
	}
	return rf, nil
}

// newPlan lays out a workload's jobs. The sample reps get distinct
// campaign seeds, so the values average over campaign trajectories
// instead of repeating one. The check job reruns rep 0's seed, or for
// a fleet runs its spec under in-process par.Run; it is not a sample.
// The traced run uses rep 0's configuration.
func newPlan(w workload, opts options, work string) *plan {
	p := &plan{w: w, n: w.repCount(opts.seconds), traced: -1}
	add := func(mode string, seed int64) int {
		j := job{W: w, Mode: mode, Seed: seed, WorkDir: filepath.Join(work, fmt.Sprintf("%s-%d", w.Name, len(p.jobs)))}
		if mode == modeTraced {
			j.SpanFile = filepath.Join(opts.out, "trace-"+w.Name+".jsonl")
		}
		p.jobs = append(p.jobs, j)
		return len(p.jobs) - 1
	}
	for k := 0; k < p.n; k++ {
		add(modeRun, campaignSeed(opts.seed, k))
	}
	if w.Ranks > 0 {
		p.check = add(modeParity, campaignSeed(opts.seed, 0))
	} else {
		p.check = add(modeRun, campaignSeed(opts.seed, 0))
	}
	if opts.traced {
		p.traced = add(modeTraced, campaignSeed(opts.seed, 0))
	}
	p.res = make([]*childResult, len(p.jobs))
	p.errs = make([]error, len(p.jobs))
	return p
}

// runChild re-executes this binary on one job and reads its result.
func runChild(ctx context.Context, j job) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdin = bytes.NewReader(in)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s job: %w", j.Mode, err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s job: bad result: %w", j.Mode, err)
	}
	if res.Err != "" {
		return nil, fmt.Errorf("%s job: %s", j.Mode, res.Err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.MaxRSSKB = ru.Maxrss // KiB on Linux
	}
	return &res, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
