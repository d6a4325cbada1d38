package harness

// Property test for the record-once/replay-many contract at the harness
// level: for every configuration in the ablation variant families, the
// cached pipeline (one interpretation, replayed per config) must produce
// bit-identical statistics to the fused uncached pipeline.

import (
	"reflect"
	"testing"

	"repro/internal/artifact"
)

func TestReplayDeterminismAcrossVariants(t *testing.T) {
	families := []struct {
		name     string
		variants []Variant
	}{
		{"recovery", RecoveryVariants()},
		{"regcheck", RegCheckVariants()},
		{"srb", SRBVariants([]int{16, 64, 256, 1024})},
		{"cores", CoresVariants([]int{2, 4, 8})},
		{"sched", SchedVariants(4, []int{2})},
		{"livein", LiveInVariants(4)},
	}
	const benchName, scale = "parser", 1
	cache := &artifact.Cache{}
	for _, fam := range families {
		for _, v := range fam.variants {
			t.Run(fam.name+"/"+v.Label, func(t *testing.T) {
				want, err := RunBenchmark(benchName, scale, v.Config, nil) // fused, uncached
				if err != nil {
					t.Fatalf("fused: %v", err)
				}
				got, err := RunBenchmark(benchName, scale, v.Config, cache) // recorded + replayed
				if err != nil {
					t.Fatalf("replayed: %v", err)
				}
				if !reflect.DeepEqual(got.Baseline, want.Baseline) {
					t.Error("baseline stats diverge between fused and replayed runs")
				}
				if !reflect.DeepEqual(got.SPT, want.SPT) {
					t.Error("SPT stats diverge between fused and replayed runs")
				}
				if got.Speedup() != want.Speedup() {
					t.Errorf("speedup %v != %v", got.Speedup(), want.Speedup())
				}
			})
		}
	}
	if st := cache.Stats(); st.RecordingMisses == 0 || st.RecordingHits == 0 {
		t.Fatalf("replay path did not engage: %+v", st)
	}
}
