package harness

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/artifact"
	"repro/internal/guard"
	"repro/internal/ir"
)

// sweepVariants is a mixed ablation: recovery kinds, SRB sizes and fork
// overheads. Several variants resolve to the same machine configuration
// (SRB=1024 and RFcopy=1 are the defaults), which is exactly what the
// artifact cache is supposed to exploit.
func sweepVariants() []Variant {
	vs := RecoveryVariants()
	vs = append(vs, SRBVariants([]int{16, 1024})...)
	vs = append(vs, OverheadVariants([]int{1, 4})...)
	return vs
}

// TestSweepDeterminism is the PR's acceptance gate: a parallel, fully
// cached Sweep must be indistinguishable — row ordering, speedups, and the
// complete simulation statistics — from a sequential uncached evaluation.
func TestSweepDeterminism(t *testing.T) {
	const name, scale = "parser", 1
	variants := sweepVariants()

	// Sequential, uncached reference.
	var wantRows []AblationRow
	wantRuns := make([]*BenchRun, len(variants))
	for i, v := range variants {
		run, err := RunBenchmark(name, scale, v.Config, nil)
		if err != nil {
			t.Fatalf("sequential %s: %v", v.Label, err)
		}
		wantRuns[i] = run
		wantRows = append(wantRows, AblationRow{Name: name, Variant: v.Label, Speedup: run.Speedup()})
	}

	// Parallel, cached sweep — twice, so both the cold (computing) and the
	// warm (fully cached) paths are exercised.
	passes0, batched0 := BroadcastStats()
	cache := &artifact.Cache{}
	opts := GuardOptions{Artifacts: cache}
	for pass := 0; pass < 2; pass++ {
		got, err := Sweep(context.Background(), name, scale, variants, opts)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !reflect.DeepEqual(got, wantRows) {
			t.Fatalf("pass %d rows diverge from sequential run:\ngot  %+v\nwant %+v", pass, got, wantRows)
		}
	}

	// The complete per-variant statistics — cycle counts, breakdowns,
	// per-loop attribution — must match the uncached pipeline, not just the
	// headline speedups.
	for i, v := range variants {
		run, err := RunBenchmark(name, scale, v.Config, cache)
		if err != nil {
			t.Fatalf("cached %s: %v", v.Label, err)
		}
		if !reflect.DeepEqual(run.Baseline, wantRuns[i].Baseline) {
			t.Errorf("%s: cached baseline stats diverge", v.Label)
		}
		if !reflect.DeepEqual(run.SPT, wantRuns[i].SPT) {
			t.Errorf("%s: cached SPT stats diverge", v.Label)
		}
	}

	st := cache.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("cache did not engage: %+v", st)
	}
	// Six variants share one program, one compile, one baseline; three of
	// them are the default configuration. The cache must have collapsed the
	// duplicates: at most program+compile+baseline+4 distinct SPT sims,
	// plus the two shared trace recordings (baseline program + SPT program)
	// every simulation replays from.
	if st.Entries > 9 {
		t.Errorf("cache holds %d entries; duplicate work was not collapsed", st.Entries)
	}
	if st.RecordingMisses != 2 {
		t.Errorf("sweep interpreted %d traces; want exactly 2 (baseline + SPT program)", st.RecordingMisses)
	}
	// The six same-step-limit variants form one broadcast batch, whose two
	// stages each pin their recording once and decode it in a single shared
	// pass: one pass feeds the (deduplicated) baseline engine, the other the
	// four distinct SPT engines. The warm pass is answered entirely from the
	// cache and broadcasts nothing.
	passes, batched := BroadcastStats()
	if got := passes - passes0; got != 2 {
		t.Errorf("broadcast passes = %d; want 2 (one per batch stage, cold pass only)", got)
	}
	if got := batched - batched0; got != 5 {
		t.Errorf("batched variants = %d; want 5 (1 baseline + 4 distinct SPT engines)", got)
	}
}

// TestSweepLoneLimitAndBatchRetry covers the two Sweep branches the other
// sweep tests leave alone: a variant whose step limit no sibling shares (a
// batch of one) and a budget-exceeded member of a batch, which retries
// alone at halved scale. Rows, the retried scale and the complete stats
// must equal sequential RunBenchmarkGuarded runs. Sweep returns rows only,
// so the stats are read back from its cache at the scale each sequential
// run completed at: a retried member's scale-1 entries exist only if the
// sweep retried it there.
func TestSweepLoneLimitAndBatchRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scale evaluation")
	}
	const name, scale = "parser", 2
	ctx := context.Background()

	// A cycle budget that both scale-1 simulations fit and neither scale-2
	// simulation does.
	r1, r2 := runBench(t, name, 1), runBench(t, name, 2)
	lo := max(r1.Baseline.Cycles, r1.SPT.Cycles)
	hi := min(r2.Baseline.Cycles, r2.SPT.Cycles)
	if hi <= lo+1 {
		t.Fatalf("no cycle budget separates scale 1 (%d cycles) from scale 2 (%d)", lo, hi)
	}
	starved := arch.DefaultConfig()
	starved.CycleLimit = (lo + hi) / 2
	lone := arch.DefaultConfig()
	lone.StepLimit = 1 << 40 // never reached, but shared by no other variant
	squash := arch.DefaultConfig()
	squash.Recovery = arch.RecoverySquash
	variants := []Variant{
		{Label: "default", Config: arch.DefaultConfig()},
		{Label: "squash", Config: squash},
		{Label: "starved", Config: starved},
		{Label: "lone-limit", Config: lone},
	}
	opts := GuardOptions{Budget: guard.Budget{Retries: 1}}

	wantRows := make([]AblationRow, len(variants))
	wantRuns := make([]*BenchRun, len(variants))
	for i, v := range variants {
		run, err := RunBenchmarkGuarded(ctx, name, scale, v.Config, opts)
		if err != nil {
			t.Fatalf("sequential %s: %v", v.Label, err)
		}
		wantRuns[i] = run
		wantRows[i] = AblationRow{Name: name, Variant: v.Label, Speedup: run.Speedup()}
	}
	if wantRuns[2].RetriedScale != 1 {
		t.Fatalf("starved variant RetriedScale = %d; the budget must force one retry", wantRuns[2].RetriedScale)
	}

	cache := &artifact.Cache{}
	sopts := opts
	sopts.Artifacts = cache
	rows, err := Sweep(ctx, name, scale, variants, sopts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Fatalf("rows diverge from sequential runs:\ngot  %+v\nwant %+v", rows, wantRows)
	}

	errMiss := errors.New("not in the sweep's cache")
	cached := func(p *ir.Program, cfg arch.Config) *arch.RunStats {
		t.Helper()
		stats, errs := cache.SimulateBatch(p, []arch.Config{cfg}, func([]int) ([]*arch.RunStats, []error) {
			return []*arch.RunStats{nil}, []error{errMiss}
		})
		if errs[0] != nil {
			t.Fatalf("stats for %+v: %v", cfg, errs[0])
		}
		return stats[0]
	}
	for i, v := range variants {
		sc := scale
		if rs := wantRuns[i].RetriedScale; rs != 0 {
			sc = rs
		}
		orig, err := benchProgram(cache, name, sc)
		if err != nil {
			t.Fatal(err)
		}
		cres, err := CompileBenchmarkCached(ctx, name, sc, cache)
		if err != nil {
			t.Fatal(err)
		}
		if got := cached(orig, baselineOf(v.Config)); !reflect.DeepEqual(got, wantRuns[i].Baseline) {
			t.Errorf("%s: baseline stats diverge from the sequential run", v.Label)
		}
		if got := cached(cres.Program, v.Config); !reflect.DeepEqual(got, wantRuns[i].SPT) {
			t.Errorf("%s: SPT stats diverge from the sequential run", v.Label)
		}
	}
}

// TestSweepPartialRows: a failing variant does not abort its batch
// siblings — the ok row keeps its speedup, the broken row carries its own
// error, and the sweep error joins the per-variant failures.
func TestSweepPartialRows(t *testing.T) {
	bad := arch.DefaultConfig()
	bad.SRBSize = 0 // fails Validate inside the simulator stage
	variants := []Variant{
		{Label: "ok", Config: arch.DefaultConfig()},
		{Label: "broken", Config: bad},
	}
	rows, err := Sweep(context.Background(), "mcf", 1, variants, GuardOptions{})
	if err == nil {
		t.Fatal("broken variant did not surface an error")
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v; want one row per variant", rows)
	}
	if rows[0].Variant != "ok" || rows[0].Err != nil || rows[0].Speedup <= 0 {
		t.Fatalf("ok row = %+v; want a surviving speedup with no error", rows[0])
	}
	if rows[1].Variant != "broken" || rows[1].Err == nil || rows[1].Speedup != 0 {
		t.Fatalf("broken row = %+v; want a zero-speedup row carrying the error", rows[1])
	}
	var zero []Variant
	if rows, err := Sweep(context.Background(), "mcf", 1, zero, GuardOptions{}); err != nil || len(rows) != 0 {
		t.Fatalf("empty sweep: rows=%v err=%v", rows, err)
	}
}

// TestSweepUnknownBenchmark: every variant fails; every row carries the
// compile error, and the sweep error is non-nil.
func TestSweepUnknownBenchmark(t *testing.T) {
	rows, err := Sweep(context.Background(), "nosuch", 1, RecoveryVariants(), GuardOptions{})
	if err == nil || len(rows) != 2 {
		t.Fatalf("rows=%v err=%v; want one errored row per variant and an error", rows, err)
	}
	for _, r := range rows {
		if r.Err == nil || r.Speedup != 0 {
			t.Fatalf("row %+v; want a zero-speedup row carrying the compile error", r)
		}
	}
}

// TestLoopCoverageCached: the cached curve matches the direct one and the
// second query is served from the cache.
func TestLoopCoverageCached(t *testing.T) {
	want, err := LoopCoverage("mcf", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := &artifact.Cache{}
	for pass := 0; pass < 2; pass++ {
		got, err := LoopCoverage("mcf", 1, cache)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: cached coverage diverges", pass)
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("second coverage query missed the cache: %+v", st)
	}

	if _, err := LoopCoverage("nosuch", 1, cache); err == nil {
		t.Error("unknown benchmark accepted")
	}
	// The failed build must not poison the cache.
	if _, err := LoopCoverage("nosuch", 1, cache); err == nil {
		t.Error("unknown benchmark accepted on retry")
	}
}
