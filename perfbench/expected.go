package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/arch"
	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/spt/client"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var endToEnd, perLayer []metricSpec

// loadSpec reads the metric names and units from BENCHMARK.json.
func loadSpec(root string) error {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	endToEnd, perLayer = spec.EndToEnd, spec.PerLayer
	return nil
}

// expected holds the outputs every repetition is checked against. They
// were computed by local fused runs (no artifact cache, no recording, no
// native capture) with -gen-expected, so every checked path is compared
// with an independent one.
type expected struct {
	// Suite maps a benchmark to its default-machine evaluation.
	Suite map[string]suiteRow `json:"suite"`
	// Sweep maps sweepJob.key(variant label) to the variant's speedup.
	Sweep map[string]float64 `json:"sweep"`
	// Serve maps servePoint.key() to the daemon's simulate response.
	Serve map[string]client.SimulateResponse `json:"serve"`
}

type suiteRow struct {
	BaseCycles int64           `json:"base_cycles"`
	BaseInstrs int64           `json:"base_instrs"`
	SPTCycles  int64           `json:"spt_cycles"`
	SPTInstrs  int64           `json:"spt_instrs"`
	Fig9       harness.Fig9Row `json:"fig9"`
}

func loadExpected(path string) (*expected, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	e := &expected{}
	if err := json.Unmarshal(b, e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(e.Suite) != len(bench.Names()) || len(e.Sweep) == 0 || len(e.Serve) == 0 {
		return nil, fmt.Errorf("%s: incomplete expected values", path)
	}
	return e, nil
}

// generateExpected recomputes every expected value with fused runs.
func generateExpected(path string) error {
	ctx := context.Background()
	e := &expected{Suite: map[string]suiteRow{}, Sweep: map[string]float64{}, Serve: map[string]client.SimulateResponse{}}

	rep := harness.RunAllGuarded(ctx, 1, arch.DefaultConfig(), harness.GuardOptions{})
	if len(rep.Failures) > 0 {
		return rep.Failures[0]
	}
	for _, r := range rep.Runs {
		e.Suite[r.Name] = suiteRow{
			BaseCycles: r.Baseline.Cycles, BaseInstrs: r.Baseline.Instrs,
			SPTCycles: r.SPT.Cycles, SPTInstrs: r.SPT.Instrs,
			Fig9: harness.Fig9(r),
		}
	}

	// Each point runs alone through the fused pipeline; a shared cache only
	// memoizes the program, its compilation and the baseline.
	cache := artifact.NewBounded(0)
	type job struct {
		name string
		cfg  arch.Config
		done func(*harness.BenchRun)
	}
	var jobs []job
	var mu sync.Mutex
	for _, j := range allSweepJobs() {
		j := j
		for _, v := range j.variants {
			label := v.Label
			jobs = append(jobs, job{j.bench, v.Config, func(r *harness.BenchRun) {
				mu.Lock()
				e.Sweep[j.key(label)] = r.Speedup()
				mu.Unlock()
			}})
		}
	}
	for _, name := range bench.Names() {
		for _, pt := range servePoints(name) {
			pt := pt
			cfg, err := service.ConfigFromRequest(pt.request())
			if err != nil {
				return err
			}
			jobs = append(jobs, job{name, cfg, func(r *harness.BenchRun) {
				mu.Lock()
				e.Serve[pt.key()] = client.SimulateResponse{
					Benchmark: r.Name, Scale: 1,
					Baseline: service.Summarize(r.Baseline), SPT: service.Summarize(r.SPT),
					Speedup: r.Speedup(),
				}
				mu.Unlock()
			}})
		}
	}
	err := onLanes(len(jobs), func(_, k int) error {
		j := jobs[k]
		r, err := harness.RunBenchmarkGuarded(ctx, j.name, 1, j.cfg, harness.GuardOptions{Artifacts: cache})
		if err != nil {
			return err
		}
		j.done(r)
		return nil
	})
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
