// Command sptsim compiles one benchmark with the SPT compiler and runs it
// on both the single-core baseline and the two-core SPT machine, printing
// the cycle counts, speculation statistics and per-loop results.
//
// Usage:
//
//	sptsim -bench mcf
//	sptsim -bench parser -recovery squash -regcheck update -srb 64
//	sptsim -bench gcc -timeout 30s -budget 50000000
//
// Every stage (compile, baseline run, SPT run) is guarded: a wall-clock
// timeout (-timeout), step budget (-budget) or cycle budget (-cycles)
// aborts the stage with a structured error, and sptsim exits non-zero
// after emitting a partial-results JSON record on stdout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/guard"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/opt"
	"repro/internal/service"
	"repro/spt/client"
)

func main() {
	var (
		name     = flag.String("bench", "parser", "benchmark name")
		file     = flag.String("file", "", "simulate a textual-IR program file instead of a benchmark (runs it as-is: compile first with sptc -o)")
		src      = flag.String("src", "", "compile a MiniC source file, run it through the SPT compiler, and simulate")
		scale    = flag.Int("scale", 1, "workload scale")
		recovery = flag.String("recovery", "srxfc", "misspeculation recovery: srxfc | squash")
		regcheck = flag.String("regcheck", "value", "register dependence checking: value | update")
		srb      = flag.Int("srb", 1024, "speculation result buffer entries (0 = the default)")
		ncores   = flag.Int("cores", 0, "total CMP cores (0 or 2 = the paper's classic machine, 3+ = chained speculation)")
		sched    = flag.String("sched", "inorder", "spec-thread scheduling policy: inorder | stride | eager")
		stride   = flag.Int("stride", 1, "iteration lookahead per spawn for -sched stride")
		livein   = flag.String("livein", "svp", "spawned-thread live-in delivery: svp | slice")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget per stage (0 = unlimited)")
		steps    = flag.Int64("budget", 0, "architectural step budget per simulation (0 = unlimited)")
		cycles   = flag.Int64("cycles", 0, "cycle budget per simulation (0 = unlimited)")
	)
	flag.Parse()
	budget := guard.Budget{Timeout: *timeout, Steps: *steps, Cycles: *cycles}

	label := *name
	if *file != "" {
		label = *file
	}
	if *src != "" {
		label = *src
	}

	var prog, sptProg *ir.Program
	if *src != "" {
		data, err := os.ReadFile(*src)
		die(err)
		p, err := lang.Compile(string(data))
		die(err)
		cres, err := compile(budget, label, p, compiler.DefaultOptions())
		if err != nil {
			fail(label, err, nil)
		}
		prog = opt.Optimize(p)
		sptProg = cres.Program
	} else if *file != "" {
		data, err := os.ReadFile(*file)
		die(err)
		p, err := ir.Parse(string(data))
		die(err)
		prog, sptProg = p, p
	} else {
		b, ok := bench.ByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "sptsim: unknown benchmark %q; have %v\n", *name, bench.Names())
			os.Exit(2)
		}
		// The baseline is the optimized program (the paper's -O3 reference),
		// exactly as the harness and the sptd service evaluate it — the
		// three paths produce bit-identical cycle counts.
		prog = opt.Optimize(b.Build(*scale))
		cres, err := compile(budget, label, prog, bench.CompilerOptions(*name))
		if err != nil {
			fail(label, err, nil)
		}
		sptProg = cres.Program
	}
	// The machine knobs mean exactly what they mean on /v1/simulate.
	cfg, err := service.ConfigFromRequest(client.SimulateRequest{
		Recovery: *recovery,
		RegCheck: *regcheck,
		SRB:      *srb,
		Cores:    *ncores,
		Sched:    *sched,
		Stride:   *stride,
		LiveIn:   *livein,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sptsim: %v\n", err)
		os.Exit(2)
	}

	base, err := simulate(budget, label, guard.StageBaseline, prog, arch.BaselineConfig())
	if err != nil {
		fail(label, err, nil)
	}
	spt, err := simulate(budget, label, guard.StageSimulate, sptProg, cfg)
	if err != nil {
		fail(label, err, base)
	}

	fmt.Printf("%s (scale %d)\n", label, *scale)
	fmt.Printf("  baseline: %12d cycles  %12d instrs  (exec %d, pipe %d, dcache %d)\n",
		base.Cycles, base.Instrs, base.Breakdown.Exec, base.Breakdown.PipeStall, base.Breakdown.DcacheStall)
	fmt.Printf("  SPT:      %12d cycles  %12d instrs  (exec %d, pipe %d, dcache %d)\n",
		spt.Cycles, spt.Instrs, spt.Breakdown.Exec, spt.Breakdown.PipeStall, spt.Breakdown.DcacheStall)
	fmt.Printf("  speedup:  %.3fx\n\n", float64(base.Cycles)/float64(spt.Cycles))
	fmt.Printf("  windows %d  fast-commits %d (%.1f%%)  replays %d  kills %d  suppressed forks %d\n",
		spt.Windows, spt.FastCommits, 100*spt.FastCommitRatio(), spt.Replays, spt.Kills, spt.NoForks)
	fmt.Printf("  speculative instrs %d  committed %d  misspeculated %d (%.2f%%)\n",
		spt.SpecInstrs, spt.CommittedInstr, spt.MisspecInstrs, 100*spt.MisspecRatio())
	fmt.Printf("  speculative core utilization %.1f%%\n\n", 100*spt.SpecUtilization())

	fmt.Printf("  %-26s %12s %12s %9s %6s %6s\n", "loop", "base cycles", "spt cycles", "speedup", "fast%", "miss%")
	keys := make([]string, 0)
	for k := range spt.PerLoop {
		keys = append(keys, k.Func+"/"+k.Header)
	}
	sort.Strings(keys)
	for _, ks := range keys {
		var sl, bl *arch.LoopStats
		for k, v := range spt.PerLoop {
			if k.Func+"/"+k.Header == ks {
				sl = v
				bl = base.PerLoop[k]
			}
		}
		if sl == nil || bl == nil || sl.Windows == 0 {
			continue
		}
		fmt.Printf("  %-26s %12d %12d %8.2fx %5.1f%% %5.2f%%\n",
			ks, bl.Cycles, sl.Cycles, float64(bl.Cycles)/float64(sl.Cycles),
			100*sl.FastCommitRatio(), 100*sl.MisspecRatio())
	}
}

// compile runs the SPT compiler under the stage guard and budget.
func compile(budget guard.Budget, label string, p *ir.Program, opts compiler.Options) (*compiler.Result, error) {
	var res *compiler.Result
	err := guard.Run(label, guard.StageCompile, func() error {
		ctx, cancel := budget.Context(context.Background())
		defer cancel()
		var cerr error
		res, cerr = compiler.CompileContext(ctx, p, opts)
		return cerr
	})
	return res, err
}

// simulate runs one machine configuration under the stage guard and budget.
func simulate(budget guard.Budget, label, stage string, p *ir.Program, cfg arch.Config) (*arch.RunStats, error) {
	var st *arch.RunStats
	err := guard.Run(label, stage, func() error {
		lp, err := interp.Load(p)
		if err != nil {
			return err
		}
		ctx, cancel := budget.Context(context.Background())
		defer cancel()
		var serr error
		st, serr = arch.NewMachine(lp, budget.Apply(cfg)).RunContext(ctx)
		return serr
	})
	return st, err
}

// simSummary is the JSON shape of a completed simulation in a partial
// failure report.
type simSummary struct {
	Cycles int64 `json:"cycles"`
	Instrs int64 `json:"instrs"`
}

// failReport is the partial-results JSON record emitted on stdout when a
// guarded stage fails.
type failReport struct {
	Label          string      `json:"label"`
	Stage          string      `json:"stage,omitempty"`
	Error          string      `json:"error"`
	BudgetExceeded bool        `json:"budget_exceeded"`
	Panicked       bool        `json:"panicked,omitempty"`
	Baseline       *simSummary `json:"baseline,omitempty"`
}

func fail(label string, err error, base *arch.RunStats) {
	rep := failReport{Label: label, Error: err.Error(), BudgetExceeded: guard.Exceeded(err)}
	var se *guard.StageError
	if errors.As(err, &se) {
		rep.Stage = se.Stage
		rep.Panicked = se.Panicked
	}
	if base != nil {
		rep.Baseline = &simSummary{Cycles: base.Cycles, Instrs: base.Instrs}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rep)
	os.Exit(1)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sptsim:", err)
		os.Exit(1)
	}
}
