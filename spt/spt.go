// Package spt is the public facade of the SPT (Speculative Parallel
// Threading) reproduction: a cost-driven speculative auto-parallelizing
// compiler plus a trace-driven simulator of the paper's two-core SPT
// machine (Li, Du, Yang, Lim, Ngai — ICPP Workshops 2005).
//
// Typical use:
//
//	prog := spt.Benchmark("parser", 1)          // or build your own ir.Program
//	cres, _ := spt.Compile(prog, spt.DefaultCompileOptions())
//	base, _ := spt.Simulate(prog, spt.BaselineMachine())
//	fast, _ := spt.Simulate(cres.Program, spt.DefaultMachine())
//	fmt.Printf("speedup %.2fx\n", float64(base.Cycles)/float64(fast.Cycles))
//
// The full evaluation of the paper's Section 5 (Table 1, Figures 6–9, the
// Figure 1 loop statistics and the Table 1 ablations) is exposed through
// the Eval* functions, which delegate to the internal harness.
package spt

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/opt"
	"repro/internal/profiler"
	"repro/internal/transform"
)

// Re-exported core types. The IR is the compiler's input language; build
// programs with ir.NewProgramBuilder / ir.NewFuncBuilder.
type (
	// Program is an IR program (see repro/internal/ir for the builders).
	Program = ir.Program
	// CompileOptions configures the two-pass cost-driven SPT compiler.
	CompileOptions = compiler.Options
	// CompileResult carries the transformed program and per-loop reports.
	CompileResult = compiler.Result
	// LoopReport describes one candidate loop's analysis and selection.
	LoopReport = compiler.LoopReport
	// MachineConfig is the simulated machine configuration (Table 1).
	MachineConfig = arch.Config
	// RunStats is the result of one simulation.
	RunStats = arch.RunStats
	// LoopStats is the per-loop simulation statistics.
	LoopStats = arch.LoopStats
	// LoopKey identifies a loop by function name and header label.
	LoopKey = profiler.LoopKey
	// Profile is a whole-program profiling result.
	Profile = profiler.Profile
	// BenchRun bundles the baseline and SPT evaluation of one benchmark.
	BenchRun = harness.BenchRun
)

// DefaultCompileOptions returns the paper's compiler settings (1000-entry
// body-size cap, trip-count and estimated-speedup thresholds, unrolling).
func DefaultCompileOptions() CompileOptions { return compiler.DefaultOptions() }

// DefaultMachine returns the Table 1 two-core SPT configuration.
func DefaultMachine() MachineConfig { return arch.DefaultConfig() }

// BaselineMachine returns the single-core reference configuration.
func BaselineMachine() MachineConfig { return arch.BaselineConfig() }

// Compile runs the two-pass cost-driven SPT compiler: profiling, loop
// preprocessing (unrolling), misspeculation-cost-driven optimal partition
// search, global loop selection and SPT code emission. The input program is
// not modified.
func Compile(p *Program, opts CompileOptions) (*CompileResult, error) {
	return compiler.Compile(p, opts)
}

// Simulate runs p on the configured machine and returns cycle-accurate
// statistics. Use BaselineMachine for the single-core reference and
// DefaultMachine (on a compiled program) for the SPT run.
func Simulate(p *Program, cfg MachineConfig) (*RunStats, error) {
	lp, err := interp.Load(p)
	if err != nil {
		return nil, err
	}
	return arch.NewMachine(lp, cfg).Run()
}

// Run executes p sequentially (the architectural reference) and returns its
// result value and dynamic instruction count.
func Run(p *Program) (ret int64, steps int64, err error) {
	lp, err := interp.Load(p)
	if err != nil {
		return 0, 0, err
	}
	m := interp.New(lp)
	res, err := m.Run()
	if err != nil {
		return 0, 0, err
	}
	return res.Ret, res.Steps, nil
}

// Optimize runs the classic scalar optimizer (constant folding and
// propagation, copy propagation, dead-code elimination, unreachable-block
// removal) and returns an optimized copy: the -O3-style baseline of the
// paper's evaluation. Compile applies it automatically when
// CompileOptions.Optimize is set (the default).
func Optimize(p *Program) *Program { return opt.Optimize(p) }

// CollectProfile profiles p (loop coverage, trip counts, dependence and
// value profiles) without simulating timing.
func CollectProfile(p *Program) (*Profile, error) {
	lp, err := interp.Load(p)
	if err != nil {
		return nil, err
	}
	return profiler.Collect(lp, 0)
}

// RegionFork applies region-based speculation (the paper's Section 6
// future-work direction) to a copy of p: the block labelled blockLabel in
// function fn is split at instruction index splitIdx, the first half forks
// a speculative thread that runs the second half, and the hardware checkers
// sort out the cross-half dependences at runtime. The input program is not
// modified.
func RegionFork(p *Program, fn, blockLabel string, splitIdx int) (*Program, error) {
	clone := p.Clone()
	f := clone.Func(fn)
	if f == nil {
		return nil, fmt.Errorf("spt: no function %q", fn)
	}
	if _, err := transform.ApplyRegionFork(f, blockLabel, splitIdx); err != nil {
		return nil, err
	}
	clone.Finalize()
	if err := clone.Validate(); err != nil {
		return nil, err
	}
	return clone, nil
}

// CompileSource compiles MiniC source text (the repository's small C-like
// front-end language; see repro/internal/lang) into an IR program ready for
// Compile and Simulate.
func CompileSource(src string) (*Program, error) { return lang.Compile(src) }

// Benchmarks returns the names of the ten SPECint2000 stand-in workloads.
func Benchmarks() []string { return bench.Names() }

// Benchmark builds the named synthetic benchmark at the given scale. It
// panics on an unknown name; use Benchmarks for the valid set.
func Benchmark(name string, scale int) *Program {
	b, ok := bench.ByName(name)
	if !ok {
		panic(fmt.Sprintf("spt: unknown benchmark %q", name))
	}
	return b.Build(scale)
}

// BenchmarkCompileOptions returns the per-benchmark compiler configuration
// (gap gets the paper's raised 2500-instruction body budget).
func BenchmarkCompileOptions(name string) CompileOptions { return bench.CompilerOptions(name) }

// EvalBenchmark compiles and simulates one benchmark against its baseline.
func EvalBenchmark(name string, scale int, cfg MachineConfig) (*BenchRun, error) {
	return harness.RunBenchmark(name, scale, cfg, nil)
}

// EvalAll evaluates every benchmark (the Figure 8/9 sweep).
func EvalAll(scale int, cfg MachineConfig) ([]*BenchRun, error) {
	return harness.RunAll(scale, cfg)
}
