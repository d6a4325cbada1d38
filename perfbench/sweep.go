package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/trace"
)

// sweepJob is one harness.Sweep call of the sweep set.
type sweepJob struct {
	bench, family string
	variants      []harness.Variant
}

// The seed draws one point from each stratum, so every seed sweeps the
// same number of engines over the same spread of sizes.
var (
	srbStrata      = [][]int{{8, 16}, {32, 64}, {128, 256}, {512, 1024, 2048}}
	overheadStrata = [][]int{{1, 2}, {3, 4, 6}, {8, 12, 16}}
	coresStrata    = [][]int{{2, 3}, {4, 5}, {6, 8}}
)

// sweepSet is the sptbench -ablate set with livein added, with the SRB,
// overhead and core points chosen by draw.
func sweepSet(draw func([]int) []int) []sweepJob {
	pick := func(strata [][]int) []int {
		var out []int
		for _, s := range strata {
			out = append(out, draw(s)...)
		}
		return out
	}
	var jobs []sweepJob
	for _, b := range []string{"parser", "mcf", "gcc"} {
		jobs = append(jobs, sweepJob{b, "recovery", harness.RecoveryVariants()})
	}
	for _, b := range []string{"parser", "mcf"} {
		jobs = append(jobs, sweepJob{b, "regcheck", harness.RegCheckVariants()})
	}
	return append(jobs,
		sweepJob{"parser", "srb", harness.SRBVariants(pick(srbStrata))},
		sweepJob{"parser", "overhead", harness.OverheadVariants(pick(overheadStrata))},
		sweepJob{"parser", "cores", harness.CoresVariants(pick(coresStrata))},
		sweepJob{"parser", "sched", harness.SchedVariants(4, []int{2, 4})},
		sweepJob{"parser", "livein", harness.LiveInVariants(4)},
	)
}

// sweepJobs is the sweep set a seed selects.
func sweepJobs(seed int64) []sweepJob {
	r := rand.New(rand.NewSource(seed))
	return sweepSet(func(s []int) []int { return []int{s[r.Intn(len(s))]} })
}

// allSweepJobs covers every point any seed can select.
func allSweepJobs() []sweepJob {
	return sweepSet(func(s []int) []int { return s })
}

func (j sweepJob) key(label string) string { return j.bench + "|" + j.family + "|" + label }

// sweepPath is design-space exploration: the sweep set through
// harness.Sweep with a fresh artifact cache per repetition.
type sweepPath struct {
	c    *child
	jobs []sweepJob
	secs []float64
}

func (p *sweepPath) setup(ctx context.Context) error {
	p.jobs = sweepJobs(p.c.seed)
	_, _, err := p.rep(ctx, -1)
	return err
}

func (p *sweepPath) close() {}

func (p *sweepPath) rep(ctx context.Context, i int) (time.Duration, pathCounts, error) {
	cache := artifact.NewBoundedBytes(0, 0)
	defer cache.ReleaseRecordings()
	rows := make([][]harness.AblationRow, len(p.jobs))
	errs := make([]error, len(p.jobs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for k, j := range p.jobs {
		wg.Add(1)
		go func(k int, j sweepJob) {
			defer wg.Done()
			rows[k], errs[k] = harness.Sweep(ctx, j.bench, 1, j.variants, harness.GuardOptions{Artifacts: cache})
		}(k, j)
	}
	wg.Wait()
	d := time.Since(t0)
	for k, j := range p.jobs {
		if errs[k] != nil {
			p.c.check(false, "sweep %s %s: %v", j.bench, j.family, errs[k])
		}
		for _, r := range rows[k] {
			want, ok := p.c.exp.Sweep[j.key(r.Variant)]
			p.c.check(ok && r.Err == nil && r.Speedup == want, "sweep %s: speedup %v, want %v", j.key(r.Variant), r.Speedup, want)
		}
	}
	pc := p.counts()
	st := cache.Stats()
	pc.hitRatio = st.HitRatio()
	pc.integrityEvictions = st.IntegrityEvictions
	pc.recordingBytes = st.Bytes
	if i >= 0 {
		p.secs = append(p.secs, d.Seconds())
	}
	return d, pc, nil
}

// counts derives the repetition's exact simulated-instruction and event
// counts: one capture of each swept benchmark's baseline and SPT program,
// and one engine per distinct canonical configuration of each (the cache
// shares duplicates across the concurrent sweeps).
func (p *sweepPath) counts() pathCounts {
	var pc pathCounts
	for _, u := range replayUnits(p.jobs) {
		row := p.c.exp.Suite[u.bench]
		steps := row.SPTInstrs
		if !u.cfgs[0].SPT {
			steps = row.BaseInstrs
			pc.events += row.BaseInstrs + row.SPTInstrs
		}
		pc.simInstrs += steps * int64(len(u.cfgs))
	}
	return pc
}

// replayUnit is one broadcast pass: the distinct configurations one sweep
// call adds for one program.
type replayUnit struct {
	bench string
	cfgs  []arch.Config
}

// replayUnits lists the passes of a sweep set: one baseline pass per
// benchmark, then per sweep call the SPT configurations no earlier call
// already simulated.
func replayUnits(jobs []sweepJob) []replayUnit {
	var units []replayUnit
	seen := map[string]bool{}
	done := map[string]map[arch.Config]bool{}
	for _, j := range jobs {
		if !seen[j.bench] {
			seen[j.bench] = true
			units = append(units, replayUnit{j.bench, []arch.Config{arch.BaselineConfig()}})
			done[j.bench] = map[arch.Config]bool{}
		}
		u := replayUnit{bench: j.bench}
		for _, v := range j.variants {
			c := v.Config.Canonical()
			if !done[j.bench][c] {
				done[j.bench][c] = true
				u.cfgs = append(u.cfgs, v.Config)
			}
		}
		if len(u.cfgs) > 0 {
			units = append(units, u)
		}
	}
	return units
}

func (p *sweepPath) samples(s map[string][]float64) {
	s["sweep_s"] = p.secs
}

// sweepProg is one swept benchmark's programs and recordings.
type sweepProg struct {
	orig, spt     *interp.Program
	recOrig, recS *trace.Recording
}

// tracedRep re-enacts the sweep set layer by layer: each lane optimizes,
// compiles and captures the next benchmark's baseline and SPT traces, then
// the lanes take the broadcast passes (arch.RunRecordedMulti). The probe
// then decodes each pass's recording into no-op handlers, one per engine.
func (p *sweepPath) tracedRep(ctx context.Context, i int, tr *tracer) (time.Duration, error) {
	benches := []string{}
	idx := map[string]int{}
	for _, j := range p.jobs {
		if _, ok := idx[j.bench]; !ok {
			idx[j.bench] = len(benches)
			benches = append(benches, j.bench)
		}
	}
	progs := make([]sweepProg, len(benches))
	defer func() {
		for _, sp := range progs {
			if sp.recOrig != nil {
				sp.recOrig.Release()
			}
			if sp.recS != nil {
				sp.recS.Release()
			}
		}
	}()
	units := replayUnits(p.jobs)
	results := make([][]*arch.RunStats, len(units))
	t0 := time.Now()
	err := onLanes(len(benches), func(lane, k int) error {
		return p.prepare(ctx, i, lane, tr, benches[k], &progs[k])
	})
	if err != nil {
		return 0, err
	}
	err = onLanes(len(units), func(lane, k int) error {
		u := units[k]
		sp := progs[idx[u.bench]]
		lp, rec := sp.spt, sp.recS
		if !u.cfgs[0].SPT {
			lp, rec = sp.orig, sp.recOrig
		}
		var errs []error
		tr.doN(i, lane, "arch.replay_multi", rec.Len()*int64(len(u.cfgs)), func() {
			results[k], errs = arch.RunRecordedMulti(ctx, lp, rec, u.cfgs)
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)

	// Check every row of the set from the passes' results.
	stats := map[string]map[arch.Config]*arch.RunStats{}
	for k, u := range units {
		if stats[u.bench] == nil {
			stats[u.bench] = map[arch.Config]*arch.RunStats{}
		}
		for n, c := range u.cfgs {
			stats[u.bench][c.Canonical()] = results[k][n]
		}
	}
	for _, j := range p.jobs {
		base := stats[j.bench][arch.BaselineConfig().Canonical()]
		for _, v := range j.variants {
			spt := stats[j.bench][v.Config.Canonical()]
			got := (&harness.BenchRun{Baseline: base, SPT: spt}).Speedup()
			want := p.c.exp.Sweep[j.key(v.Label)]
			p.c.check(base != nil && spt != nil && got == want, "sweep %s: traced speedup %v, want %v", j.key(v.Label), got, want)
		}
	}

	for _, u := range units {
		sp := progs[idx[u.bench]]
		rec := sp.recS
		if !u.cfgs[0].SPT {
			rec = sp.recOrig
		}
		hs := make([]trace.Handler, len(u.cfgs))
		for n := range hs {
			hs[n] = trace.HandlerFunc(func(*trace.Event) {})
		}
		var mr trace.MultiReplayer
		tr.probe(i, "trace.decode", rec.Len()*int64(len(hs)), func() { err = mr.Replay(ctx, rec, hs, nil) })
		if err != nil {
			return 0, err
		}
	}
	return d, nil
}

// prepare optimizes, compiles and captures one swept benchmark.
func (p *sweepPath) prepare(ctx context.Context, i, lane int, tr *tracer, name string, sp *sweepProg) error {
	b, ok := bench.ByName(name)
	if !ok {
		return fmt.Errorf("unknown benchmark %s", name)
	}
	src := b.Build(1)
	var orig *ir.Program
	tr.do(i, lane, "opt.optimize", func() { orig = opt.Optimize(src) })
	var cres *compiler.Result
	var err error
	tr.do(i, lane, "compiler.compile", func() { cres, err = compiler.CompileContext(ctx, orig, bench.CompilerOptions(name)) })
	if err != nil {
		return err
	}
	if sp.orig, err = interp.Load(orig); err != nil {
		return err
	}
	if sp.spt, err = interp.Load(cres.Program); err != nil {
		return err
	}
	tr.do(i, lane, "trace.capture", func() { sp.recOrig, err = arch.RecordTrace(ctx, sp.orig, 0) })
	if err != nil {
		return err
	}
	tr.do(i, lane, "trace.capture", func() { sp.recS, err = arch.RecordTrace(ctx, sp.spt, 0) })
	if err != nil {
		return err
	}
	want := p.c.exp.Suite[name]
	p.c.check(sp.recOrig.Steps() == want.BaseInstrs && sp.recS.Steps() == want.SPTInstrs,
		"sweep %s: captured %d/%d steps", name, sp.recOrig.Steps(), sp.recS.Steps())
	return nil
}

// onLanes runs f(lane, k) for k in [0, n), with each lane taking the next
// k until none is left, and returns the first error.
func onLanes(n int, f func(lane, k int) error) error {
	var next atomic.Int32
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				if err := f(lane, k); err != nil {
					errs[lane] = err
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *sweepPath) layers(tr *tracer, m map[string]float64) {
	m["trace.capture_ms"] = tr.medianRep("trace.capture")
	m["trace.decode_ms"] = tr.medianRep("trace.decode")
	m["arch.replay_multi_ms"] = tr.medianRep("arch.replay_multi")
	replay, work := tr.perRep("arch.replay_multi")
	decode, _ := tr.perRep("trace.decode")
	var nsPerEvent, minstr []float64
	for k := range replay {
		if k >= len(decode) || work[k] == 0 {
			continue
		}
		engineMs := replay[k] - decode[k]
		nsPerEvent = append(nsPerEvent, engineMs*1e6/float64(work[k]))
		minstr = append(minstr, float64(work[k])/1e6/(engineMs/1e3))
	}
	m["arch.engine_ns_per_event"] = median(nsPerEvent)
	m["arch.minstr_per_s"] = median(minstr)
}
