package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/arch"
	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/profiler"
)

// paperFig9Avg is the paper's average Figure 9 program speedup, in percent.
const paperFig9Avg = 15.6

// suitePath is the paper-reproduction path: one cold evaluation of all ten
// benchmarks at scale 1 on the default machine, as sptbench -fig9 runs it.
type suitePath struct {
	c      *child
	secs   []float64
	fig9pp float64
}

func (p *suitePath) setup(ctx context.Context) error {
	_, _, err := p.rep(ctx, -1)
	return err
}

func (p *suitePath) close() {}

func (p *suitePath) rep(ctx context.Context, i int) (time.Duration, pathCounts, error) {
	cache := artifact.NewBoundedBytes(0, 0)
	t0 := time.Now()
	rep := harness.RunAllGuarded(ctx, 1, arch.DefaultConfig(), harness.GuardOptions{Artifacts: cache})
	d := time.Since(t0)
	var pc pathCounts
	var rows []harness.Fig9Row
	for j, name := range bench.Names() {
		r := rep.Runs[j]
		if r == nil {
			p.c.check(false, "suite %s: no result", name)
			continue
		}
		row := harness.Fig9(r)
		rows = append(rows, row)
		p.c.check(p.c.exp.suiteMatches(name, r.Baseline, r.SPT, &row), "suite %s: result differs from the expected values", name)
		pc.simInstrs += r.Baseline.Instrs + r.SPT.Instrs
		pc.engines += 2
	}
	for _, f := range rep.Failures {
		p.c.check(false, "suite: %v", f)
	}
	st := cache.Stats()
	pc.hitRatio = st.HitRatio()
	pc.integrityEvictions = st.IntegrityEvictions
	pc.recordingBytes = st.Bytes
	if i >= 0 {
		p.secs = append(p.secs, d.Seconds())
		p.fig9pp = math.Abs(100*(harness.Average(rows).Speedup-1) - paperFig9Avg)
	}
	return d, pc, nil
}

// suiteMatches reports whether one benchmark's evaluation equals the
// expected cycles, instructions and Figure 9 row.
func (e *expected) suiteMatches(name string, base, spt *arch.RunStats, row *harness.Fig9Row) bool {
	want, ok := e.Suite[name]
	return ok && base != nil && spt != nil &&
		base.Cycles == want.BaseCycles && base.Instrs == want.BaseInstrs &&
		spt.Cycles == want.SPTCycles && spt.Instrs == want.SPTInstrs &&
		(row == nil || *row == want.Fig9)
}

func (p *suitePath) samples(s map[string][]float64) {
	s["suite_s"] = p.secs
	s["fig9_avg_err_pp"] = []float64{p.fig9pp}
}

// tracedRep re-enacts RunAllGuarded layer by layer: each lane takes the
// next benchmark and optimizes, compiles and simulates it (baseline, then
// SPT) on the fused interpret-and-simulate path. The probes then time one
// profiling pass and one bare interpreter run of every optimized program.
func (p *suitePath) tracedRep(ctx context.Context, i int, tr *tracer) (time.Duration, error) {
	names := bench.Names()
	progs := make([]*ir.Program, len(names))
	t0 := time.Now()
	err := onLanes(len(names), func(lane, j int) error {
		return p.tracedBench(ctx, i, lane, tr, names[j], &progs[j])
	})
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	for j, name := range names {
		lp, err := interp.Load(progs[j])
		if err != nil {
			return 0, err
		}
		var perr error
		tr.probe(i, "profiler.collect", 0, func() {
			_, perr = profiler.CollectContext(ctx, lp, bench.CompilerOptions(name).ProfileStepLimit)
		})
		var res interp.Result
		tr.probe(i, "interp.run", 0, func() { res, perr = interp.New(lp).Run() })
		if perr != nil {
			return 0, fmt.Errorf("%s: %w", name, perr)
		}
		p.c.check(res.Steps == p.c.exp.Suite[name].BaseInstrs, "suite %s: interpreter ran %d steps", name, res.Steps)
	}
	return d, nil
}

func (p *suitePath) tracedBench(ctx context.Context, i, lane int, tr *tracer, name string, prog **ir.Program) error {
	b, ok := bench.ByName(name)
	if !ok {
		return fmt.Errorf("unknown benchmark %s", name)
	}
	src := b.Build(1)
	var orig *ir.Program
	tr.do(i, lane, "opt.optimize", func() { orig = opt.Optimize(src) })
	*prog = orig
	var cres *compiler.Result
	var err error
	tr.do(i, lane, "compiler.compile", func() { cres, err = compiler.CompileContext(ctx, orig, bench.CompilerOptions(name)) })
	if err != nil {
		return err
	}
	lp, err := interp.Load(orig)
	if err != nil {
		return err
	}
	var base, spt *arch.RunStats
	tr.do(i, lane, "arch.fused_base", func() { base, err = arch.NewMachine(lp, arch.BaselineConfig()).RunContext(ctx) })
	if err != nil {
		return err
	}
	lps, err := interp.Load(cres.Program)
	if err != nil {
		return err
	}
	tr.do(i, lane, "arch.fused_spt", func() { spt, err = arch.NewMachine(lps, arch.DefaultConfig()).RunContext(ctx) })
	if err != nil {
		return err
	}
	p.c.check(p.c.exp.suiteMatches(name, base, spt, nil), "suite %s: traced result differs from the expected values", name)
	return nil
}

func (p *suitePath) layers(tr *tracer, m map[string]float64) {
	for _, l := range []string{"opt.optimize", "compiler.compile", "profiler.collect", "interp.run", "arch.fused_base", "arch.fused_spt"} {
		m[l+"_ms"] = tr.medianRep(l)
	}
}
