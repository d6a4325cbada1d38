package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
)

// minReps is the fewest repetitions a time-bound phase runs.
const minReps = 2

// lanes is how many goroutines a traced re-enactment drives the layers
// with: the work-slot count harness and the daemon use on this host.
var lanes = runtime.GOMAXPROCS(0)

// child runs one path in this process.
type child struct {
	path      string
	seed      int64
	seconds   time.Duration
	reps      int
	traced    bool
	own       bool
	nativeDir string
	exp       *expected

	mu           sync.Mutex // guards res.Attempted, res.Failed and res.Errors
	res          childResult
	countSamples map[string][]float64
}

// pathRunner is one path's set-up and repetitions.
type pathRunner interface {
	// setup prepares the path, including its warm-up repetition.
	setup(ctx context.Context) error
	// rep runs one untraced repetition and returns its end-to-end time and
	// the counts the path itself knows.
	rep(ctx context.Context, i int) (time.Duration, pathCounts, error)
	// tracedRep re-enacts one repetition under spans; probes run after it
	// and stay outside its end-to-end time.
	tracedRep(ctx context.Context, i int, tr *tracer) (time.Duration, error)
	// samples reports the untraced repetitions' measurements, which the
	// coordinator pools across processes into the end-to-end metrics.
	samples(s map[string][]float64)
	// layers reports the per-layer metrics of the traced repetitions.
	layers(tr *tracer, m map[string]float64)
	// close releases what setup acquired.
	close()
}

// check counts one checked operation; lanes call it concurrently.
func (c *child) check(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.res.Attempted++
	if !ok {
		c.res.Failed++
		if len(c.res.Errors) < 8 {
			c.res.Errors = append(c.res.Errors, fmt.Sprintf(format, args...))
		}
	}
}

func (c *child) run() int {
	ctx := context.Background()
	var p pathRunner
	switch c.path {
	case "suite":
		p = &suitePath{c: c}
	case "sweep":
		p = &sweepPath{c: c}
	case "serve":
		p = &servePath{c: c}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown path %q\n", c.path)
		return 2
	}
	defer p.close()
	if err := p.setup(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", c.path, err)
		return 1
	}
	fmt.Println(readyLine)
	c.res.Metrics = map[string]float64{}
	c.res.Samples = map[string][]float64{}

	heap := startHeapPeak()
	var untraced, traced, peaks []float64
	tr := newTracer()
	start := time.Now()
	for i := 0; ; i++ {
		if c.reps > 0 && i >= c.reps {
			break
		}
		if c.reps == 0 && i >= minReps && time.Since(start) >= c.seconds {
			break
		}
		before := snapCounts()
		heap.take()
		d, pc, err := p.rep(ctx, i)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s repetition %d: %v\n", c.path, i, err)
			return 1
		}
		untraced = append(untraced, d.Seconds())
		peaks = append(peaks, float64(heap.take())/1e6)
		if c.own {
			c.addCounts(before, pc)
		}
		if c.traced {
			d, err := p.tracedRep(ctx, i, tr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s traced repetition %d: %v\n", c.path, i, err)
				return 1
			}
			traced = append(traced, d.Seconds())
		}
	}
	heap.stop()
	if !c.traced {
		p.samples(c.res.Samples)
		if c.own {
			c.res.Samples["peak_heap_mb"] = peaks
		}
		return c.emit()
	}
	p.layers(tr, c.res.Metrics)
	if c.own {
		ms := func(s float64) float64 { return s * 1e3 }
		c.res.Metrics["trace.overhead_ms"] = ms(median(traced) - median(untraced))
		c.res.Metrics["trace.uncovered_ms"] = tr.uncoveredMs(traced)
		for k, v := range c.res.Counts {
			c.res.Metrics[k] = v
		}
	}
	return c.emit()
}

func (c *child) emit() int {
	b, err := json.Marshal(&c.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// ---- exact counts ----

type countSnap struct {
	mallocs, gcs     uint64
	passes, variants int64
}

func snapCounts() countSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p, v := harness.BroadcastStats()
	return countSnap{mallocs: ms.Mallocs, gcs: uint64(ms.NumGC), passes: p, variants: v}
}

// pathCounts are the per-repetition counts a path reports itself.
type pathCounts struct {
	simInstrs, events, engines int64
	recordingBytes             int64
	hitRatio                   float64
	integrityEvictions         int64
	nativeRatio                float64
}

// addCounts records one repetition's counts; the reported value is the
// median over repetitions (every count but count.gc repeats exactly).
func (c *child) addCounts(before countSnap, pc pathCounts) {
	after := snapCounts()
	engines := pc.engines
	if engines == 0 {
		engines = after.variants - before.variants
	}
	if c.countSamples == nil {
		c.countSamples = map[string][]float64{}
	}
	add := func(k string, v float64) { c.countSamples[k] = append(c.countSamples[k], v) }
	add("count.sim_minstr", float64(pc.simInstrs)/1e6)
	add("count.events", float64(pc.events))
	add("count.engines", float64(engines))
	add("trace.recording_mb", float64(pc.recordingBytes)/1e6)
	add("count.allocs", float64(after.mallocs-before.mallocs))
	add("count.gc", float64(after.gcs-before.gcs))
	add("artifact.hit_ratio", pc.hitRatio)
	add("artifact.integrity_evictions", float64(pc.integrityEvictions))
	add("harness.broadcast_passes", float64(after.passes-before.passes))
	add("nativecap.native_ratio", pc.nativeRatio)
	c.res.Counts = map[string]float64{}
	for k, v := range c.countSamples {
		c.res.Counts[k] = median(v)
	}
}

// ---- peak heap ----

type heapPeak struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

// startHeapPeak samples the bytes of live and not-yet-swept heap objects
// every two milliseconds until stop.
func startHeapPeak() *heapPeak {
	h := &heapPeak{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			for v := s[0].Value.Uint64(); ; {
				old := h.peak.Load()
				if v <= old || h.peak.CompareAndSwap(old, v) {
					break
				}
			}
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// take returns the peak since the previous take and starts a new one.
func (h *heapPeak) take() uint64 { return h.peak.Swap(0) }

func (h *heapPeak) stop() {
	close(h.done)
	h.wg.Wait()
}

// ---- spans ----

// span is one timed call into a layer. Spans of one repetition share rep;
// lane is the goroutine that made the call, so spans of one lane never
// overlap and every span is a leaf: its self time is its duration.
type span struct {
	name       string
	rep, lane  int
	start, end time.Duration
	n          int64 // work items the call covered (events × engines for replays)
	probe      bool  // measured after the repetition, outside its end-to-end time
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f as a span of the repetition's end-to-end time.
func (t *tracer) do(rep, lane int, name string, f func()) {
	t.record(span{name: name, rep: rep, lane: lane}, f)
}

// doN is do for a call that covers n work items.
func (t *tracer) doN(rep, lane int, name string, n int64, f func()) {
	t.record(span{name: name, rep: rep, lane: lane, n: n}, f)
}

// probe runs f as a span measured after the repetition.
func (t *tracer) probe(rep int, name string, n int64, f func()) {
	t.record(span{name: name, rep: rep, n: n, probe: true}, f)
}

func (t *tracer) record(s span, f func()) {
	s.start = time.Since(t.t0)
	f()
	s.end = time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// perRep returns, for each repetition that has spans named name, the
// summed duration (ms) and work of those spans, ordered by repetition.
func (t *tracer) perRep(name string) (ms []float64, work []int64) {
	sum := map[int]float64{}
	n := map[int]int64{}
	for _, s := range t.spans {
		if s.name == name {
			sum[s.rep] += float64(s.end-s.start) / 1e6
			n[s.rep] += s.n
		}
	}
	reps := make([]int, 0, len(sum))
	for r := range sum {
		reps = append(reps, r)
	}
	sort.Ints(reps)
	for _, r := range reps {
		ms = append(ms, sum[r])
		work = append(work, n[r])
	}
	return ms, work
}

// medianRep is the median over repetitions of a layer's per-repetition
// time in ms.
func (t *tracer) medianRep(name string) float64 {
	ms, _ := t.perRep(name)
	return median(ms)
}

// durations returns every span's duration (ms) named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// uncoveredMs is the median over traced repetitions of the lane time no
// non-probe span covers: lanes × end-to-end − Σ self times.
func (t *tracer) uncoveredMs(e2e []float64) float64 {
	self := map[int]float64{}
	for _, s := range t.spans {
		if !s.probe {
			self[s.rep] += float64(s.end-s.start) / 1e6
		}
	}
	var out []float64
	for i, d := range e2e {
		out = append(out, float64(lanes)*d*1e3-self[i])
	}
	return median(out)
}
