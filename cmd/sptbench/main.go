// Command sptbench regenerates the paper's evaluation (Section 5): Table 1,
// Figures 6–9, the Figure 1 parser-loop statistics, and the Table 1
// ablations (recovery mechanism, register checker, SRB size).
//
// Usage:
//
//	sptbench -all              # everything (default)
//	sptbench -table1 -fig9     # selected artifacts
//	sptbench -scale 2          # larger derived input sets
//	sptbench -fig9 -timeout 60s -retries 1
//	sptbench -all -cpuprofile cpu.out -memprofile mem.out
//
//	sptbench -serve-smoke http://127.0.0.1:8750   # end-to-end sptd check
//	sptbench -serve-load  http://127.0.0.1:8750 -load-requests 200 -load-concurrency 100
//
// The serve modes drive a running sptd daemon through spt/client: the
// smoke exercises compile, simulate (bit-identical to a local run), a
// coalesced duplicate pair and an async job; the load generator hammers
// one simulate point concurrently and verifies backpressure (429 +
// Retry-After) and coalescing via the daemon's cache metrics.
//
// The benchmark sweep runs under the guarded harness: -timeout, -budget
// and -cycles bound each stage, -retries reruns budget-exceeded
// benchmarks at reduced scale, and one benchmark's failure never takes
// down the suite — figures are printed for the benchmarks that completed,
// a JSON failure report goes to stdout, and sptbench exits non-zero.
//
// Every figure and ablation shares one artifact cache, so a full run
// generates, compiles, and simulates each distinct (program,
// configuration) point exactly once; the ablation sweeps and coverage
// curves run concurrently under the harness work-slot semaphore with
// deterministic output ordering.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/guard"
	"repro/internal/harness"
)

func main() {
	var (
		scale      = flag.Int("scale", 1, "workload scale (the paper's derived input sets)")
		all        = flag.Bool("all", false, "produce every table and figure")
		table1     = flag.Bool("table1", false, "Table 1: machine configuration")
		fig1       = flag.Bool("fig1", false, "Figure 1: the parser list-free loop")
		fig6       = flag.Bool("fig6", false, "Figure 6: loop coverage vs body size")
		fig7       = flag.Bool("fig7", false, "Figure 7: SPT loop number and coverage")
		fig8       = flag.Bool("fig8", false, "Figure 8: SPT loop performance")
		fig9       = flag.Bool("fig9", false, "Figure 9: program speedup breakdown")
		ablate     = flag.Bool("ablate", false, "Table 1 ablations (recovery / reg check / SRB)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget per benchmark stage (0 = unlimited)")
		steps      = flag.Int64("budget", 0, "architectural step budget per simulation (0 = unlimited)")
		cycles     = flag.Int64("cycles", 0, "cycle budget per simulation (0 = unlimited)")
		retries    = flag.Int("retries", 0, "rerun budget-exceeded benchmarks at halved scale up to this many times")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		traceStats = flag.Bool("trace-cache", false, "print recording-cache statistics (hits/misses/bytes/evictions) to stderr after the run")
		traceBytes = flag.Int64("trace-bytes", 0, "byte bound for cached trace recordings (LRU-evicted; 0 = unbounded)")

		serveLoad       = flag.String("serve-load", "", "URL of a running sptd: drive a concurrent simulate load through spt/client, verifying bit-identical results, 429 backpressure and cache coalescing")
		serveSmoke      = flag.String("serve-smoke", "", "URL of a running sptd: one compile + one simulate + a duplicate pair + an async job, asserting cache coalescing")
		loadRequests    = flag.Int("load-requests", 200, "serve-load: total simulate requests")
		loadConcurrency = flag.Int("load-concurrency", 100, "serve-load: concurrent in-flight requests")
		loadBench       = flag.String("load-bench", "parser", "serve-load / serve-smoke / chaos-soak: benchmark to request")

		chaosSoak    = flag.Bool("chaos-soak", false, "run the fault-injection soak: start sptd under a seeded chaos plan, drive durable async jobs, SIGKILL + restart mid-run, require bit-identical convergence")
		clusterSoak  = flag.Bool("cluster-soak", false, "run the node-killing cluster soak: 3 sptd nodes with tiered stores and work stealing, SIGKILL one mid-run, require zero lost jobs and a zero-recompute warm restart")
		sptdBin      = flag.String("sptd-bin", "", "chaos-soak: path to the sptd binary to launch")
		soakRequests = flag.Int("soak-requests", 24, "chaos-soak: async jobs per phase")
		soakSeed     = flag.Int64("chaos-seed", 1, "chaos-soak: seed for the daemon's built-in fault plan")
		soakDir      = flag.String("soak-dir", "", "chaos-soak: work dir for journals and metrics snapshots (empty = temp dir)")
	)
	flag.Parse()
	if *chaosSoak {
		os.Exit(runChaosSoak(*sptdBin, *loadBench, *scale, *soakRequests, *soakSeed, *soakDir))
	}
	if *clusterSoak {
		os.Exit(runClusterSoak(*sptdBin, *scale, *soakRequests, *soakDir))
	}
	if *serveSmoke != "" {
		os.Exit(runServeSmoke(*serveSmoke, *loadBench, *scale))
	}
	if *serveLoad != "" {
		os.Exit(runServeLoad(*serveLoad, *loadBench, *scale, *loadRequests, *loadConcurrency))
	}
	if !(*table1 || *fig1 || *fig6 || *fig7 || *fig8 || *fig9 || *ablate) {
		*all = true
	}
	if *all {
		*table1, *fig1, *fig6, *fig7, *fig8, *fig9, *ablate = true, true, true, true, true, true, true
	}
	if err := startProfiles(*cpuprofile, *memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "sptbench:", err)
		os.Exit(1)
	}

	cfg := arch.DefaultConfig()
	cache := artifact.NewBoundedBytes(0, *traceBytes)
	opts := harness.GuardOptions{
		Budget: guard.Budget{
			Timeout: *timeout, Steps: *steps, Cycles: *cycles, Retries: *retries,
		},
		Artifacts: cache,
	}

	if *table1 {
		printTable1(cfg)
	}
	if *fig6 {
		printFig6(*scale, cache)
	}

	var runs []*harness.BenchRun
	var rep *harness.Report
	if *fig7 || *fig8 || *fig9 {
		fmt.Fprintf(os.Stderr, "evaluating %d benchmarks at scale %d...\n", len(bench.Names()), *scale)
		rep = harness.RunAllGuarded(context.Background(), *scale, cfg, opts)
		runs = rep.Successes()
		for _, se := range rep.Failures {
			fmt.Fprintf(os.Stderr, "sptbench: %v (continuing with the rest)\n", se)
		}
	}
	if *fig7 {
		printFig7(runs)
	}
	if *fig8 {
		printFig8(runs)
	}
	if *fig9 {
		printFig9(runs)
	}
	if *fig1 {
		printFig1(*scale, cache)
	}
	sweepFailed := false
	if *ablate {
		sweepFailed = printAblations(*scale, opts)
	}
	if *traceStats {
		printTraceCacheStats(cache)
	}
	if rep != nil && len(rep.Failures) > 0 {
		emitFailureReport(*scale, rep)
		exit(1)
	}
	if sweepFailed {
		exit(1)
	}
	exit(0)
}

// ---- profiling ----

var profState struct {
	cpu     *os.File
	memPath string
	once    sync.Once
}

// startProfiles begins CPU profiling and records where to write the heap
// profile at exit. Empty paths disable the respective profile.
func startProfiles(cpuPath, memPath string) error {
	profState.memPath = memPath
	if cpuPath == "" {
		return nil
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	profState.cpu = f
	return nil
}

// stopProfiles finalizes the requested profiles; it is safe to call on
// every exit path.
func stopProfiles() {
	profState.once.Do(func() {
		if profState.cpu != nil {
			pprof.StopCPUProfile()
			profState.cpu.Close()
		}
		if profState.memPath != "" {
			f, err := os.Create(profState.memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sptbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sptbench:", err)
			}
		}
	})
}

// exit flushes the profiles and terminates with the given status.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

// printTraceCacheStats reports how the shared recording cache behaved:
// each miss is one interpreter pass, each hit is a simulation that fed
// from a replayed trace instead of re-interpreting the program.
func printTraceCacheStats(cache *artifact.Cache) {
	st := cache.Stats()
	fmt.Fprintf(os.Stderr,
		"trace cache: %d recordings interpreted, %d simulations replayed, %d bytes resident, %d evicted (%d integrity)\n",
		st.RecordingMisses, st.RecordingHits, st.Bytes, st.Evictions, st.IntegrityEvictions)
}

// ---- output ----

// emitFailureReport writes the partial-results JSON record for a degraded
// sweep: which benchmarks completed, and a structured entry per failure.
func emitFailureReport(scale int, rep *harness.Report) {
	type failure struct {
		Benchmark      string `json:"benchmark"`
		Stage          string `json:"stage"`
		Error          string `json:"error"`
		BudgetExceeded bool   `json:"budget_exceeded"`
		Panicked       bool   `json:"panicked,omitempty"`
	}
	out := struct {
		Scale     int       `json:"scale"`
		Completed []string  `json:"completed"`
		Failures  []failure `json:"failures"`
	}{Scale: scale}
	for _, run := range rep.Successes() {
		out.Completed = append(out.Completed, run.Name)
	}
	for _, se := range rep.Failures {
		out.Failures = append(out.Failures, failure{
			Benchmark:      se.Benchmark,
			Stage:          se.Stage,
			Error:          se.Err.Error(),
			BudgetExceeded: guard.Exceeded(se),
			Panicked:       se.Panicked,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sptbench:", err)
		exit(1)
	}
}

func header(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("-", len(title)))
}

func printTable1(cfg arch.Config) {
	header("Table 1: Default machine configuration")
	for _, row := range harness.Table1(cfg) {
		fmt.Printf("  %-36s %s\n", row[0], row[1])
	}
}

func printFig6(scale int, cache *artifact.Cache) {
	header("Figure 6: Accumulative loop coverage vs loop body size")
	fmt.Printf("  %-8s", "size<=")
	for _, lim := range harness.Fig6SizeLimits {
		fmt.Printf(" %8.0f", lim)
	}
	fmt.Println()
	// Profile the benchmarks concurrently, print in name order.
	names := bench.Names()
	curves := make([][]harness.CoveragePoint, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			curves[i], errs[i] = harness.LoopCoverage(name, scale, cache)
		}(i, name)
	}
	wg.Wait()
	for i, name := range names {
		die(errs[i])
		fmt.Printf("  %-8s", name)
		for _, p := range curves[i] {
			fmt.Printf(" %7.1f%%", 100*p.Coverage)
		}
		fmt.Println()
	}
}

func printFig7(runs []*harness.BenchRun) {
	header("Figure 7: SPT loop number and coverage")
	fmt.Printf("  %-8s %10s %14s %14s\n", "bench", "#SPT loops", "max coverage", "SPT coverage")
	var loops int
	var maxCov, sptCov float64
	for _, r := range runs {
		row := harness.Fig7(r)
		fmt.Printf("  %-8s %10d %13.1f%% %13.1f%%\n",
			row.Name, row.NumSPTLoops, 100*row.MaxCoverage, 100*row.SPTCoverage)
		loops += row.NumSPTLoops
		maxCov += row.MaxCoverage
		sptCov += row.SPTCoverage
	}
	if n := float64(len(runs)); n > 0 {
		fmt.Printf("  %-8s %10.1f %13.1f%% %13.1f%%\n", "Average",
			float64(loops)/n, 100*maxCov/n, 100*sptCov/n)
	}
}

func printFig8(runs []*harness.BenchRun) {
	header("Figure 8: SPT loop performance")
	fmt.Printf("  %-8s %14s %14s %14s\n", "bench", "loop speedup", "fast-commit", "misspec ratio")
	var spd, fc, ms float64
	var n float64
	for _, r := range runs {
		row := harness.Fig8(r)
		if row.LoopsMeasured == 0 {
			fmt.Printf("  %-8s %14s %14s %14s\n", row.Name, "-", "-", "-")
			continue
		}
		fmt.Printf("  %-8s %13.1f%% %13.1f%% %13.2f%%\n",
			row.Name, 100*(row.LoopSpeedup-1), 100*row.FastCommitRatio, 100*row.MisspecRatio)
		spd += row.LoopSpeedup
		fc += row.FastCommitRatio
		ms += row.MisspecRatio
		n++
	}
	if n > 0 {
		fmt.Printf("  %-8s %13.1f%% %13.1f%% %13.2f%%\n", "Average",
			100*(spd/n-1), 100*fc/n, 100*ms/n)
	}
}

func printFig9(runs []*harness.BenchRun) {
	header("Figure 9: Program speedup (execution / pipeline-stall / d-cache-stall breakdown)")
	fmt.Printf("  %-8s %9s %9s %9s %9s\n", "bench", "speedup", "exec", "pipe", "dcache")
	var rows []harness.Fig9Row
	for _, r := range runs {
		row := harness.Fig9(r)
		rows = append(rows, row)
		fmt.Printf("  %-8s %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
			row.Name, 100*(row.Speedup-1), 100*row.ExecPart, 100*row.PipePart, 100*row.DcachePart)
	}
	avg := harness.Average(rows)
	fmt.Printf("  %-8s %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
		"Average", 100*(avg.Speedup-1), 100*avg.ExecPart, 100*avg.PipePart, 100*avg.DcachePart)
	fmt.Println("  (paper: 15.6% average = 8.4% execution + 1.7% pipeline stalls + 5.5% d-cache stalls)")
}

func printFig1(scale int, cache *artifact.Cache) {
	header("Figure 1: the parser list-free loop")
	st, err := harness.Fig1Parser(scale, cache)
	die(err)
	fmt.Printf("  loop speedup     %6.1f%%   (paper: >40%%)\n", 100*(st.LoopSpeedup-1))
	fmt.Printf("  fast-commit      %6.1f%%   (paper: ~20%% of threads perfectly parallel)\n", 100*st.FastCommitRatio)
	fmt.Printf("  misspeculated    %6.2f%%   (paper: ~5%% of speculative instructions invalid)\n", 100*st.MisspecRatio)
	fmt.Printf("  windows          %6d\n", st.Windows)
}

// sweepJob is one ablation sweep: a benchmark, its variants, and the row
// format its group prints with.
type sweepJob struct {
	name     string
	variants []harness.Variant
	format   string
}

// printAblations runs every ablation sweep concurrently (the per-variant
// evaluations inside each sweep fan out further under the harness work
// semaphore) and prints the rows in the fixed historical order. It reports
// whether any sweep failed; completed rows are printed either way.
func printAblations(scale int, opts harness.GuardOptions) (failed bool) {
	header("Ablations (Table 1 'default' knobs)")
	var jobs []sweepJob
	for _, name := range []string{"parser", "mcf", "gcc"} {
		jobs = append(jobs, sweepJob{name, harness.RecoveryVariants(), "  %-8s recovery=%-45s speedup %6.1f%%\n"})
	}
	for _, name := range []string{"parser", "mcf"} {
		jobs = append(jobs, sweepJob{name, harness.RegCheckVariants(), "  %-8s regcheck=%-44s speedup %6.1f%%\n"})
	}
	jobs = append(jobs,
		sweepJob{"parser", harness.SRBVariants([]int{16, 64, 256, 1024}), "  %-8s %-53s speedup %6.1f%%\n"},
		sweepJob{"parser", harness.OverheadVariants([]int{1, 4, 16}), "  %-8s %-53s speedup %6.1f%%\n"},
		sweepJob{"parser", harness.CoresVariants([]int{2, 4, 8}), "  %-8s %-53s speedup %6.1f%%\n"},
		sweepJob{"parser", harness.SchedVariants(4, []int{2, 4}), "  %-8s %-53s speedup %6.1f%%\n"},
	)
	rows := make([][]harness.AblationRow, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j sweepJob) {
			defer wg.Done()
			rows[i], errs[i] = harness.Sweep(context.Background(), j.name, scale, j.variants, opts)
		}(i, j)
	}
	wg.Wait()
	for i, j := range jobs {
		for _, r := range rows[i] {
			if r.Err != nil {
				// A failed variant keeps its row: the table shows exactly
				// which configuration died while the siblings' numbers stand.
				fmt.Printf("  %-8s %-53s ERROR: %v\n", r.Name, r.Variant, r.Err)
				continue
			}
			fmt.Printf(j.format, r.Name, r.Variant, 100*(r.Speedup-1))
		}
		if errs[i] != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "sptbench: ablation %s: %v (continuing with the rest)\n", j.name, errs[i])
		}
	}
	return failed
}
