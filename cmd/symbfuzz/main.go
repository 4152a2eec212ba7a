// Command symbfuzz fuzzes a hardware design with the SymbFuzz engine
// and prints the bug report and coverage summary.
//
// Usage:
//
//	symbfuzz -bench opentitan_mini -vectors 20000
//	symbfuzz -src design.sv -top mymodule -vectors 50000
//	symbfuzz -bench aes -trace out.jsonl -metrics metrics.json -status :6060
//	symbfuzz -bench aes -trace out.jsonl -prof   # then: fuzzreport out.jsonl
//
// Distributed campaigns run one coordinator and N workers. -serve is a
// fleet coordinator hosting one implicit campaign, so it also answers
// /v1/campaigns and /metrics:
//
//	symbfuzz -serve :7070 -bench scmi_mailbox -workers 2 -journal camp.jsonl
//	symbfuzz -connect host:7070            # on each worker machine
//	symbfuzz -serve :7070 ... -journal camp.jsonl -resume   # after a crash
//
// Fleet mode hosts many named campaigns on one coordinator process;
// campaigns are managed over the control surface with fuzzctl:
//
//	symbfuzz -fleet :7070 -journal-dir fleetdir             # coordinator
//	fuzzctl -addr host:7070 create -name nightly -bench scmi_mailbox -workers 4
//	symbfuzz -connect host:7070 -campaign nightly           # workers
//	symbfuzz -fleet :7070 -journal-dir fleetdir -resume     # after a crash
//
// SIGINT/SIGTERM interrupt any mode gracefully: the engine stops at
// the next cycle, the JSONL trace and metrics snapshot are flushed,
// and the partial report is printed (and serialized with
// "interrupted": true when -report-out is set).
//
// Built-in benchmarks: alu, opentitan_mini, opentitan_mini_fixed,
// cva6_mini, rocket_mini, mor1kx_mini, and each SoC IP by module name
// (scmi_mailbox, lc_ctrl, aes, otbn_mac, rom_ctrl, pwr_mgr, uart_rx,
// csrng, sysrst_ctrl, otp_ctrl_dai).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	symbfuzz "repro"
	"repro/internal/designs"
	"repro/internal/dist"
	"repro/internal/fleet"
)

// propFlags collects repeated -prop name=expr[;disable] flags, keeping
// both the compiled property and its source form (distributed
// campaigns ship the source strings in the campaign spec).
type propFlags struct {
	props []*symbfuzz.Property
	specs []dist.PropSpec
}

func (p *propFlags) String() string { return fmt.Sprintf("%d properties", len(p.props)) }

func (p *propFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("use -prop name=expr[;disable-iff-expr]")
	}
	exprSrc, disableSrc, _ := strings.Cut(rest, ";")
	name, exprSrc, disableSrc = strings.TrimSpace(name), strings.TrimSpace(exprSrc), strings.TrimSpace(disableSrc)
	prop, err := symbfuzz.ParseProperty(name, exprSrc, disableSrc)
	if err != nil {
		return err
	}
	p.props = append(p.props, prop)
	p.specs = append(p.specs, dist.PropSpec{Name: name, Expr: exprSrc, DisableIff: disableSrc})
	return nil
}

func main() {
	var extraProps propFlags
	var (
		bench     = flag.String("bench", "", "built-in benchmark name")
		srcFile   = flag.String("src", "", "HDL source file (alternative to -bench)")
		top       = flag.String("top", "", "top module (with -src)")
		vectors   = flag.Uint64("vectors", 20000, "input vector budget")
		interval  = flag.Int("interval", 300, "Algorithm 1 interval I (cycles)")
		threshold = flag.Int("threshold", 3, "Algorithm 1 stagnation threshold Th")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 1, "parallel campaign workers (1 = single-engine)")
		fixed     = flag.Bool("fixed", false, "use the bug-free design variant")
		replay    = flag.Bool("replay", false, "use reset+replay instead of snapshots")
		keepGoing = flag.Bool("keep-going", true, "continue after full CFG coverage")
		noSlice   = flag.Bool("no-slice", false, "disable cone-of-influence slicing (ablation)")
		simBack   = flag.String("sim", "compiled", "simulation backend: compiled (closure-compiled, the default) or interp (event-driven interpreter; identical trajectories, slower)")
		traceOut  = flag.String("trace", "", "write the JSONL campaign event trace to this file")
		metricOut = flag.String("metrics", "", "write the final metrics/status snapshot JSON to this file")
		statusOn  = flag.String("status", "", "serve the live status+pprof endpoint on this address (e.g. :6060)")
		reportOut = flag.String("report-out", "", "write the final (merged) report JSON to this file")
		profOn    = flag.Bool("prof", false, "profile the simulator: per-process eval counts ride the -trace file, whose cost ledger fuzzreport renders")

		serveOn  = flag.String("serve", "", "run as distributed-campaign coordinator on this address (e.g. :7070)")
		connect  = flag.String("connect", "", "run as distributed-campaign worker against this coordinator")
		rankHint = flag.Int("rank-hint", -1, "preferred shard rank when connecting (-1 = any)")
		maxRanks = flag.Int("max-ranks", 0, "maximum shard ranks this worker runs (0 = until campaign done)")
		journal  = flag.String("journal", "", "coordinator journal path (JSONL; enables -resume)")
		resume   = flag.Bool("resume", false, "resume a coordinator (or fleet) from its journal(s)")
		leaseTTL = flag.Duration("lease-ttl", 5*time.Second, "coordinator rank-lease TTL")

		fleetOn    = flag.String("fleet", "", "run as multi-campaign fleet coordinator on this address (create campaigns with fuzzctl)")
		journalDir = flag.String("journal-dir", "", "fleet journal directory (one <campaign>.jsonl per campaign; enables -resume)")
		traceDir   = flag.String("trace-dir", "", "fleet trace directory (one merged <campaign>.trace.jsonl per campaign)")
		campaign   = flag.String("campaign", "", "campaign name to work on when connecting to a fleet coordinator")
		watchOn    = flag.Bool("watch", false, "fleet: enable the health plane (journaled alerts, /v1/watch/snapshot, fuzztop)")
	)
	flag.Var(&extraProps, "prop",
		`extra security property, repeatable: -prop 'name=err |-> en;!rst_ni'`)
	flag.Parse()

	// SIGINT/SIGTERM cancel the campaign context: every mode stops at
	// the next boundary, flushes telemetry, and reports what it has.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *fleetOn != "" {
		if err := runFleet(ctx, *fleetOn, *journalDir, *traceDir, *resume, *watchOn, *leaseTTL); err != nil && ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "symbfuzz:", err)
			os.Exit(1)
		}
		return
	}
	if *connect != "" {
		if err := runConnect(ctx, *connect, *campaign, *rankHint, *maxRanks); err != nil && ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "symbfuzz:", err)
			os.Exit(1)
		}
		return
	}

	if *profOn && *traceOut == "" {
		fmt.Fprintln(os.Stderr, "symbfuzz: -prof needs -trace: the simulator profile is written into the trace")
		os.Exit(1)
	}

	b, err := resolveBenchmark(*bench, *srcFile, *top, *fixed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "symbfuzz:", err)
		os.Exit(1)
	}
	b.Properties = append(b.Properties, extraProps.props...)

	// Telemetry: build an observer when any observability flag is set;
	// nil otherwise (the engine's zero-overhead fast path).
	var o *symbfuzz.Observer
	var statusSrv interface {
		Shutdown(context.Context) error
		Addr() string
	}
	if *traceOut != "" || *metricOut != "" || *statusOn != "" {
		opts := symbfuzz.ObserverOptions{}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "symbfuzz:", err)
				os.Exit(1)
			}
			opts.Tracer = symbfuzz.NewJSONLTracer(f)
		}
		o = symbfuzz.NewObserver(opts)
		if *statusOn != "" {
			srv, err := symbfuzz.ServeStatus(*statusOn, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "symbfuzz:", err)
				os.Exit(1)
			}
			statusSrv = srv
			fmt.Printf("status endpoint: http://%s/status (Prometheus at /metrics, pprof at /debug/pprof/)\n", srv.Addr())
		}
	}

	cfg := symbfuzz.Config{
		Interval:              *interval,
		Threshold:             *threshold,
		MaxVectors:            *vectors,
		Seed:                  *seed,
		UseSnapshots:          !*replay,
		ContinueAfterCoverage: *keepGoing,
		DisableSlicing:        *noSlice,
		SimBackend:            *simBack,
		SimProfile:            *profOn,
		Obs:                   o,
	}

	var rep *symbfuzz.Report
	var prep *symbfuzz.ParallelReport
	var err2 error
	if *serveOn != "" {
		spec := dist.CampaignSpec{
			Bench: *bench, Fixed: *fixed, Top: *top,
			Props:                 extraProps.specs,
			Interval:              cfg.Interval,
			Threshold:             cfg.Threshold,
			MaxVectors:            cfg.MaxVectors,
			Seed:                  cfg.Seed,
			Workers:               *workers,
			UseSnapshots:          cfg.UseSnapshots,
			ContinueAfterCoverage: cfg.ContinueAfterCoverage,
			DisableSlicing:        cfg.DisableSlicing,
			Profile:               *profOn,
			SimBackend:            cfg.SimBackend,
		}
		if *srcFile != "" {
			spec.Bench = ""
			spec.Source = b.Source
		}
		prep, err2 = runServe(ctx, *serveOn, spec, *journal, *resume, *leaseTTL, o)
		if prep != nil {
			rep = prep.Merged
		}
	} else if *workers > 1 {
		// -workers 1 takes the single-engine path unchanged; N > 1 runs
		// the parallel orchestrator and reports the rank-merged campaign.
		prep, err2 = symbfuzz.FuzzParallelContext(ctx, b, symbfuzz.ParallelConfig{Config: cfg, Workers: *workers})
		if prep != nil {
			rep = prep.Merged
		}
	} else {
		rep, err2 = symbfuzz.FuzzContext(ctx, b, cfg)
	}
	// Flush telemetry before exiting on any path: the trace file ends
	// with what the campaign managed to emit, interrupted or not.
	if cerr := o.Close(); cerr != nil {
		fmt.Fprintln(os.Stderr, "symbfuzz: trace:", cerr)
	}
	if statusSrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = statusSrv.Shutdown(sctx)
		cancel()
	}
	if err2 != nil {
		fmt.Fprintln(os.Stderr, "symbfuzz:", err2)
		os.Exit(1)
	}
	if *metricOut != "" {
		data, merr := json.MarshalIndent(o.Snapshot(), "", "  ")
		if merr == nil {
			merr = os.WriteFile(*metricOut, append(data, '\n'), 0o644)
		}
		if merr != nil {
			fmt.Fprintln(os.Stderr, "symbfuzz: metrics:", merr)
			os.Exit(1)
		}
	}
	if *reportOut != "" {
		data, rerr := json.MarshalIndent(rep, "", "  ")
		if rerr == nil {
			rerr = os.WriteFile(*reportOut, append(data, '\n'), 0o644)
		}
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "symbfuzz: report:", rerr)
			os.Exit(1)
		}
	}

	if rep.Interrupted {
		fmt.Println("campaign interrupted — partial report:")
	}
	fmt.Printf("benchmark: %s (%d LoC)\n", b.Name, b.LoC)
	fmt.Printf("CFG: %d nodes, %d edges, %d checkpoints, %d dependency equations\n",
		rep.GraphStats.Nodes, rep.GraphStats.Edges, rep.GraphStats.Checkpoints, rep.GraphStats.DepEqns)
	if prep != nil {
		printWorkers(prep)
	}
	fmt.Printf("vectors applied: %d (cycles: %d)\n", rep.Vectors, rep.Cycles)
	fmt.Printf("coverage: %d points; nodes %d/%d; edges %d/%d\n",
		rep.FinalPoints, rep.NodesCovered, rep.NodesTotal, rep.EdgesCovered, rep.EdgesTotal)
	fmt.Printf("guidance: %d symbolic invocations, %d solved plans, %d rollbacks\n",
		rep.SymbolicInvocations, rep.SolvedPlans, rep.Rollbacks)
	fmt.Printf("static pruning: %d unreachable CFG nodes excluded, %d solver dispatches avoided\n",
		rep.PrunedTargets, rep.PrunedSolves)
	if !*noSlice {
		fmt.Printf("cone slicing: %d solver variables eliminated, %d targets refuted statically\n",
			rep.SlicedVars, rep.InfeasibleTargets)
	}
	if rep.CovEventsDropped > 0 {
		fmt.Printf("warning: coverage monitor dropped %d branch events (buffer cap); tuple metric undercounts\n",
			rep.CovEventsDropped)
	}
	printTimings(rep)
	if len(rep.Bugs) == 0 {
		fmt.Println("no property violations detected")
		return
	}
	fmt.Printf("\n%-36s %-12s %10s %8s\n", "property", "CWE", "vectors", "cycle")
	for _, bug := range rep.Bugs {
		fmt.Printf("%-36s %-12s %10d %8d\n", bug.Property, bug.CWE, bug.Vectors, bug.Cycle)
	}
}

// runServe hosts the distributed campaign as the implicit campaign of
// a fleet coordinator until every shard rank has reported (or ctx is
// interrupted).
func runServe(ctx context.Context, addr string, spec dist.CampaignSpec,
	journal string, resume bool, leaseTTL time.Duration, o *symbfuzz.Observer) (*symbfuzz.ParallelReport, error) {
	s, err := fleet.NewServer(addr, fleet.Config{LeaseTTL: leaseTTL})
	if err != nil {
		return nil, err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = s.Shutdown(sctx)
		cancel()
	}()
	if _, err := s.Host(dist.CoordConfig{Spec: spec, JournalPath: journal, Resume: resume, Obs: o}); err != nil {
		return nil, err
	}
	fmt.Printf("coordinator listening on %s (campaign: %d workers, seed %d)\n",
		s.Addr(), spec.Workers, spec.Seed)
	return s.WaitCampaign(ctx, "")
}

// runFleet hosts the multi-campaign fleet coordinator until ctx is
// interrupted. Campaigns are created, inspected, and cancelled over
// the /v1/campaigns control surface (see cmd/fuzzctl); workers target
// them with -connect -campaign <name>.
func runFleet(ctx context.Context, addr, journalDir, traceDir string, resume, watch bool, leaseTTL time.Duration) error {
	s, err := fleet.NewServer(addr, fleet.Config{
		JournalDir: journalDir,
		TraceDir:   traceDir,
		Resume:     resume,
		LeaseTTL:   leaseTTL,
		Watch:      watch,
	})
	if err != nil {
		return err
	}
	fmt.Printf("fleet coordinator listening on %s (control surface: http://%s/v1/campaigns, metrics: /metrics)\n",
		s.Addr(), s.Addr())
	if watch {
		fmt.Printf("watch plane on: poll http://%s/v1/watch/snapshot or run fuzztop -addr %s\n", s.Addr(), s.Addr())
	}
	<-ctx.Done()
	fmt.Println("fleet coordinator shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(sctx)
}

// runConnect runs the distributed-campaign worker loop against a
// remote coordinator (optionally targeting one campaign of a fleet).
func runConnect(ctx context.Context, addr, campaign string, rankHint, maxRanks int) error {
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	id := fmt.Sprintf("%s-%d", host, os.Getpid())
	fmt.Printf("worker %s connecting to %s\n", id, addr)
	err := dist.RunWorker(ctx, dist.WorkerConfig{
		Addr: addr, WorkerID: id, Campaign: campaign,
		RankHint: rankHint, MaxRanks: maxRanks,
	})
	if err == nil {
		fmt.Println("worker done; exiting")
	}
	return err
}

// printWorkers renders the per-worker breakdown of a parallel campaign
// followed by the shared-cache tallies.
func printWorkers(prep *symbfuzz.ParallelReport) {
	fmt.Printf("parallel campaign: %d workers, wall %s\n",
		prep.Workers, time.Duration(prep.WallNS).Round(time.Millisecond))
	fmt.Printf("  %-7s %12s %10s %8s %10s %6s\n", "worker", "seed", "vectors", "points", "edges", "bugs")
	for r, wr := range prep.PerWorker {
		if wr == nil {
			fmt.Printf("  w%-6d %12d %10s\n", r+1, prep.Seeds[r], "(no report)")
			continue
		}
		fmt.Printf("  w%-6d %12d %10d %8d %6d/%-3d %6d\n",
			r+1, prep.Seeds[r], wr.Vectors, wr.FinalPoints, wr.EdgesCovered, wr.EdgesTotal, len(wr.Bugs))
	}
	if prep.CacheHits+prep.CacheMisses > 0 {
		fmt.Printf("  plan cache: %d hits, %d misses\n", prep.CacheHits, prep.CacheMisses)
	}
	if prep.TargetPoints > 0 && prep.TimeToTargetNS > 0 {
		fmt.Printf("  reached %d points in %s\n", prep.TargetPoints,
			time.Duration(prep.TimeToTargetNS).Round(time.Millisecond))
	}
}

// printTimings renders the phase-time table: where the campaign's wall
// clock went (Fig. 4's time axis) and the aggregate solver statistics.
func printTimings(rep *symbfuzz.Report) {
	t := rep.Timings
	dur := func(ns int64) string { return time.Duration(ns).Round(time.Microsecond).String() }
	pct := func(ns int64) float64 {
		if t.TotalNS == 0 {
			return 0
		}
		return 100 * float64(ns) / float64(t.TotalNS)
	}
	fmt.Println("phase times:")
	fmt.Printf("  %-22s %12s %7s\n", "phase", "wall", "%")
	fmt.Printf("  %-22s %12s %7.1f\n", "fuzz intervals", dur(t.FuzzNS), pct(t.FuzzNS))
	fmt.Printf("  %-22s %12s %7.1f\n", "symbolic guidance", dur(t.SymbolicNS), pct(t.SymbolicNS))
	fmt.Printf("  %-22s %12s %7.1f\n", "  rollback (subset)", dur(t.RollbackNS), pct(t.RollbackNS))
	if t.VCDNS > 0 {
		fmt.Printf("  %-22s %12s %7.1f\n", "vcd round trip", dur(t.VCDNS), pct(t.VCDNS))
	}
	fmt.Printf("  %-22s %12s %7.1f\n", "total", dur(t.TotalNS), 100.0)
	s := t.Solve
	if s.Dispatches > 0 {
		fmt.Printf("solver: %d dispatches (%d sat, %d unsat), mean latency %s (blast %s, cdcl %s)\n",
			s.Dispatches, s.Sat, s.Unsat, dur(s.MeanSolveNS()),
			dur(s.BlastNS/int64(s.Dispatches)), dur(s.CDCLNS/int64(s.Dispatches)))
		fmt.Printf("solver: %d conflicts, %d decisions, %d propagations; %d clauses, %d vars summed over dispatches\n",
			s.Conflicts, s.Decisions, s.Propagations, s.Clauses, s.Vars)
	}
	if t.CheckpointBytes > 0 {
		fmt.Printf("checkpoint store: %.1f KiB architectural state across snapshots\n",
			float64(t.CheckpointBytes)/1024)
	}
}

// resolveBenchmark maps CLI flags to a benchmark.
func resolveBenchmark(bench, srcFile, top string, fixed bool) (*symbfuzz.Benchmark, error) {
	if srcFile != "" {
		data, err := os.ReadFile(srcFile)
		if err != nil {
			return nil, err
		}
		if top == "" {
			return nil, fmt.Errorf("-top is required with -src")
		}
		return &symbfuzz.Benchmark{Name: top, Top: top, Source: string(data)}, nil
	}
	if bench == "" {
		return nil, fmt.Errorf("one of -bench or -src is required")
	}
	if b, ok := designs.Lookup(bench, !fixed); ok {
		return b, nil
	}
	return nil, fmt.Errorf("unknown benchmark %q", bench)
}
