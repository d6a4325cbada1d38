package artifact

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/profiler"
)

// tinyProgram builds a minimal valid program returning imm.
func tinyProgram(imm int64) *ir.Program {
	b := ir.NewFuncBuilder("main", 0)
	b.Block("entry")
	r := b.NewReg()
	b.MovI(r, imm)
	b.Ret(r)
	p := &ir.Program{Funcs: []*ir.Func{b.Done()}, Entry: "main"}
	p.Finalize()
	return p
}

// simulateOne is a one-configuration SimulateBatch: the shape of every
// cache transaction a single evaluation makes.
func simulateOne(c *Cache, p *ir.Program, cfg arch.Config, run func() (*arch.RunStats, error)) (*arch.RunStats, error) {
	stats, errs := c.SimulateBatch(p, []arch.Config{cfg}, func([]int) ([]*arch.RunStats, []error) {
		rs, err := run()
		return []*arch.RunStats{rs}, []error{err}
	})
	return stats[0], errs[0]
}

func TestFingerprintContentIdentity(t *testing.T) {
	a, b := tinyProgram(7), tinyProgram(7)
	c := tinyProgram(8)
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("structurally identical programs should share a fingerprint")
	}
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("different programs should not share a fingerprint")
	}
	if got := Fingerprint(a); got != Fingerprint(a) {
		t.Errorf("fingerprint not stable: %s", got)
	}
	if Fingerprint(nil) != "" {
		t.Error("nil program should fingerprint to the empty string")
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := &Cache{}
	calls := 0
	build := func() (*ir.Program, error) { calls++; return tinyProgram(1), nil }

	p1, err := c.Program("bench", 3, "opt", build)
	if err != nil || p1 == nil {
		t.Fatalf("first build: %v", err)
	}
	p2, err := c.Program("bench", 3, "opt", build)
	if err != nil {
		t.Fatalf("second build: %v", err)
	}
	if p1 != p2 {
		t.Error("cache hit should return the same program")
	}
	if calls != 1 {
		t.Errorf("build ran %d times; want 1", calls)
	}
	// A different key computes separately.
	if _, err := c.Program("bench", 4, "opt", build); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("build ran %d times after new scale; want 2", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v; want 1 hit, 2 misses, 2 entries", st)
	}
}

func TestCacheReset(t *testing.T) {
	c := &Cache{}
	calls := 0
	build := func() (*ir.Program, error) { calls++; return tinyProgram(1), nil }
	if _, err := c.Program("b", 1, "raw", build); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if st := c.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("stats after Reset = %+v; want zeros", st)
	}
	if _, err := c.Program("b", 1, "raw", build); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("build ran %d times; Reset should force a recompute", calls)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := &Cache{}
	boom := errors.New("boom")
	calls := 0
	p := tinyProgram(1)
	_, err := c.Profile(p, "", func() (*profiler.Profile, error) {
		calls++
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v; want boom", err)
	}
	_, err = c.Profile(p, "", func() (*profiler.Profile, error) {
		calls++
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v; want boom", err)
	}
	if calls != 2 {
		t.Errorf("failed computation ran %d times; errors must not be cached", calls)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("entries = %d after failures; want 0", st.Entries)
	}
}

func TestCachePanicPropagatesAndIsNotCached(t *testing.T) {
	c := &Cache{}
	p := tinyProgram(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		_, _ = simulateOne(c, p, arch.DefaultConfig(), func() (*arch.RunStats, error) {
			panic("kaboom")
		})
	}()
	// The slot must be free again and the next computation succeeds.
	rs, err := simulateOne(c, p, arch.DefaultConfig(), func() (*arch.RunStats, error) {
		return &arch.RunStats{Cycles: 42}, nil
	})
	if err != nil || rs == nil || rs.Cycles != 42 {
		t.Fatalf("recompute after panic: %v %+v", err, rs)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := &Cache{}
	p := tinyProgram(3)
	var computes atomic.Int64
	var wg sync.WaitGroup
	results := make([]*arch.RunStats, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, err := simulateOne(c, p, arch.DefaultConfig(), func() (*arch.RunStats, error) {
				computes.Add(1)
				return &arch.RunStats{Cycles: 7}, nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			results[i] = rs
		}(i)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("computed %d times under concurrency; want 1", n)
	}
	for i, rs := range results {
		if rs != results[0] {
			t.Errorf("goroutine %d got a different stats pointer", i)
		}
	}
}

func TestSimulateSharesCanonicalBaselines(t *testing.T) {
	c := &Cache{}
	p := tinyProgram(4)
	calls := 0
	run := func() (*arch.RunStats, error) { calls++; return &arch.RunStats{Cycles: 9}, nil }

	// Two baseline configs that differ only in speculation parameters must
	// share one simulation...
	a := arch.BaselineConfig()
	b := arch.BaselineConfig()
	b.SRBSize = 16
	b.Recovery = arch.RecoverySquash
	if _, err := simulateOne(c, p, a, run); err != nil {
		t.Fatal(err)
	}
	if _, err := simulateOne(c, p, b, run); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("baseline simulated %d times; canonicalization should share it", calls)
	}
	// ...while the same divergence in SPT mode is a real config change.
	sa := arch.DefaultConfig()
	sb := arch.DefaultConfig()
	sb.SRBSize = 16
	if _, err := simulateOne(c, p, sa, run); err != nil {
		t.Fatal(err)
	}
	if _, err := simulateOne(c, p, sb, run); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("SPT variants simulated %d times total; want 3", calls)
	}
}

func TestNilCacheComputesDirectly(t *testing.T) {
	var c *Cache
	calls := 0
	for i := 0; i < 2; i++ {
		p, err := c.Program("b", 1, "raw", func() (*ir.Program, error) {
			calls++
			return tinyProgram(5), nil
		})
		if err != nil || p == nil {
			t.Fatalf("nil cache compute: %v", err)
		}
	}
	if calls != 2 {
		t.Errorf("nil cache ran build %d times; want 2 (no caching)", calls)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil cache stats = %+v; want zero", st)
	}
	c.Reset() // must not panic
}

func TestBoundedCacheEvictsLRU(t *testing.T) {
	c := NewBounded(2)
	calls := map[string]int{}
	get := func(name string) {
		t.Helper()
		_, err := c.Program(name, 1, "opt", func() (*ir.Program, error) {
			calls[name]++
			return tinyProgram(1), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // refresh a: b is now least recently used
	get("c") // evicts b
	if c.Len() != 2 {
		t.Fatalf("Len = %d; want 2", c.Len())
	}
	if c.Evictions() != 1 {
		t.Fatalf("Evictions = %d; want 1", c.Evictions())
	}
	get("a") // still cached
	get("b") // recomputes
	if calls["a"] != 1 {
		t.Errorf("a computed %d times; the refreshed entry should have survived", calls["a"])
	}
	if calls["b"] != 2 {
		t.Errorf("b computed %d times; the LRU entry should have been evicted", calls["b"])
	}
	if st := c.Stats(); st.Evictions != c.Evictions() {
		t.Errorf("Stats.Evictions = %d, Evictions() = %d; want equal", st.Evictions, c.Evictions())
	}
}

func TestBoundedCacheNeverEvictsInFlight(t *testing.T) {
	c := NewBounded(1)
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = c.Program("slow", 1, "opt", func() (*ir.Program, error) {
			close(started)
			<-release
			return tinyProgram(1), nil
		})
	}()
	<-started
	// Fill past the cap while "slow" is still computing: it must not be
	// evicted (its waiter would lose the result), so the cache transiently
	// overflows and the completed fillers get evicted instead.
	for i := 0; i < 3; i++ {
		if _, err := c.Program("fill", i, "opt", func() (*ir.Program, error) {
			return tinyProgram(2), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	wg.Wait()
	// slow must still be resident: a second request hits without computing.
	calls := 0
	if _, err := c.Program("slow", 1, "opt", func() (*ir.Program, error) {
		calls++
		return tinyProgram(3), nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Error("in-flight entry was evicted; want it retained for its waiters")
	}
	if n := c.Len(); n > 2 {
		t.Errorf("Len = %d after completion; want the bound restored (<= 2)", n)
	}
}

func TestBoundedCacheSingleFlightUnderBound(t *testing.T) {
	c := NewBounded(4)
	p := tinyProgram(6)
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := simulateOne(c, p, arch.DefaultConfig(), func() (*arch.RunStats, error) {
				computes.Add(1)
				return &arch.RunStats{Cycles: 11}, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("bounded cache computed %d times; want 1 (single-flight intact)", n)
	}
}
