// Command perfbench is the repository benchmark. One invocation runs one
// workload with one seed and prints, as its last stdout line, a JSON object
// with the keys correct, attempted, failed and metrics:
//
//	bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 10 --trace 0
//
// Each workload runs one user path as its measured phase, in child
// processes of its own:
//
//	suite-cold  harness.RunAllGuarded over the ten benchmarks (sptbench -fig9)
//	serve       an in-process sptd (service.New + spt/client) on loopback
//	sweep-cold  the sptbench -ablate sweep set through harness.Sweep (by hand)
//
// The output format lists every end-to-end metric for every workload, so
// the other paths run afterwards as short side phases, each in processes of
// their own, so that their heaps and caches never touch the measured phase.
// With --trace 1 the children re-enact their path through the public calls
// of each layer under spans and print the per-layer metrics instead (see
// NOTES.md).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads maps a workload name to the path it measures. BENCHMARK.json
// lists suite-cold and serve; sweep-cold runs by hand (NOTES.md says why
// it is out of the list).
var workloads = map[string]string{
	"suite-cold": "suite",
	"sweep-cold": "sweep",
	"serve":      "serve",
}

// paths in the order side phases run.
var paths = []string{"suite", "sweep", "serve"}

// Host time varies by several percent from one process to the next (page
// placement), so a path's repetitions are spread over several processes:
// ownProcs for the measured phase, whose set-ups also give setup_s, and
// sideProcs × sideReps for a side phase.
const ownProcs = 3

var (
	sideProcs = map[string]int{"suite": 2, "sweep": 2, "serve": 2}
	sideReps  = map[string]int{"suite": 3, "sweep": 3, "serve": 2}
)

// step is one child process of a run.
type step struct {
	path string
	args []string
	own  bool
}

// plan lists a run's child processes: the measured phase first, then the
// side phases. A traced run needs no set-up samples and no spread, so it
// runs each path in one process, the side phases for two repetitions.
func plan(own string, seconds float64, traced bool) []step {
	procs := ownProcs
	if traced {
		procs = 1
	}
	secs := strconv.FormatFloat(seconds/float64(procs), 'f', -1, 64)
	var steps []step
	for i := 0; i < procs; i++ {
		steps = append(steps, step{own, []string{"-own", "-seconds", secs}, true})
	}
	for _, p := range paths {
		if p == own {
			continue
		}
		procs, reps := sideProcs[p], sideReps[p]
		if traced {
			procs, reps = 1, 2
		}
		for i := 0; i < procs; i++ {
			steps = append(steps, step{p, []string{"-reps", strconv.Itoa(reps)}, false})
		}
	}
	return steps
}

// endToEndMetrics pools the children's samples into the end-to-end
// metrics.
func endToEndMetrics(m map[string]float64, s map[string][]float64, setups []float64) {
	m["setup_s"] = median(setups)
	for _, k := range []string{"peak_heap_mb", "suite_s", "fig9_avg_err_pp", "sweep_s", "serve_fill_s"} {
		if len(s[k]) > 0 {
			m[k] = median(s[k])
		}
	}
	if hits := s["serve_hit_ms"]; len(hits) > 0 {
		m["serve_hit_p50_ms"] = quantile(hits, 0.5)
		m["serve_hit_p90_ms"] = quantile(hits, 0.9)
		var secs float64
		for _, v := range s["serve_hit_segment_s"] {
			secs += v
		}
		m["serve_hit_rps"] = float64(len(hits)) / secs
	}
	if misses := s["serve_miss_ms"]; len(misses) > 0 {
		m["serve_miss_p50_ms"] = quantile(misses, 0.5)
	}
}

// runDeadline bounds a whole run; children still running are killed.
const runDeadline = 170 * time.Second

const readyLine = "perfbench: ready"

func main() {
	var (
		workload = flag.String("workload", "", "workload: suite-cold | sweep-cold | serve")
		seed     = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds  = flag.Float64("seconds", 10, "seconds the measured phase runs")
		traceOn  = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		root     = flag.String("root", ".", "repository checkout to read expected values from and build under")

		phase     = flag.String("phase", "", "child mode: run one path (suite | sweep | serve) in this process")
		reps      = flag.Int("reps", 0, "child mode: fixed repetition count (0 = run for -seconds)")
		own       = flag.Bool("own", false, "child mode: this path is the workload's measured phase")
		nativeDir = flag.String("native-dir", "", "child mode: private native-capture module directory")
		gen       = flag.Bool("gen-expected", false, "recompute perfbench/expected.json from local fused runs")
	)
	flag.Parse()
	if *gen {
		if err := generateExpected(filepath.Join(*root, "perfbench", "expected.json")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	exp, err := loadExpected(filepath.Join(*root, "perfbench", "expected.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *phase != "" {
		c := &child{
			path: *phase, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
			reps: *reps, traced: *traceOn == 1, own: *own,
			nativeDir: *nativeDir, exp: exp,
		}
		os.Exit(c.run())
	}
	if err := loadSpec(*root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	path, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *traceOn)
		os.Exit(2)
	}
	os.Exit(coordinate(*root, *workload, path, *seed, *seconds, *traceOn == 1))
}

// childResult is the JSON a child prints as its last stdout line.
type childResult struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]float64   `json:"metrics,omitempty"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
	Counts    map[string]float64   `json:"counts,omitempty"`
	Errors    []string             `json:"errors,omitempty"`
}

// coordinate runs the workload's children in sequence and prints the
// result line.
func coordinate(root, workload, own string, seed int64, seconds float64, traced bool) int {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	runDir := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	n := 0
	spawn := func(st step) (*childResult, time.Duration, error) {
		n++
		args := append([]string{"-root", root, "-phase", st.path, "-seed", strconv.FormatInt(seed, 10), "-trace", traceArg}, st.args...)
		env := os.Environ()
		if st.path == "serve" {
			// Each measured serve process builds its own native modules,
			// since that is its set-up; the side processes share one
			// directory, so only the first of them builds.
			dir := filepath.Join(runDir, "serve-side")
			if st.own {
				dir = filepath.Join(runDir, fmt.Sprintf("serve-%d", n))
			}
			cache := filepath.Join(dir, "gocache")
			if _, err := os.Stat(cache); err != nil {
				if cache, err = copyGoCache(os.Getenv("GOCACHE"), cache); err != nil {
					return nil, 0, err
				}
			}
			if cache != "" {
				env = append(env, "GOCACHE="+cache)
			}
			args = append(args, "-native-dir", filepath.Join(dir, "nativecap"))
		}
		return runChild(ctx, env, args)
	}

	var setups []float64
	var counts map[string]float64
	total := &childResult{Metrics: map[string]float64{}, Samples: map[string][]float64{}}
	for _, st := range plan(own, seconds, traced) {
		r, setup, err := spawn(st)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s phase: %v\n", st.path, err)
			return 1
		}
		if st.own {
			setups = append(setups, setup.Seconds())
			if counts == nil {
				counts = r.Counts
			}
		}
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, v := range r.Metrics {
			total.Metrics[k] = v
		}
		for k, v := range r.Samples {
			total.Samples[k] = append(total.Samples[k], v...)
		}
		fmt.Printf("perfbench: %s phase: %d/%d operations failed\n", st.path, r.Failed, r.Attempted)
		for _, e := range r.Errors {
			fmt.Printf("perfbench: %s phase: %s\n", st.path, e)
		}
	}

	want := perLayer
	if !traced {
		want = endToEnd
		endToEndMetrics(total.Metrics, total.Samples, setups)
		names := make([]string, 0, len(total.Samples))
		for k := range total.Samples {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("perfbench: %d samples of %s\n", len(total.Samples[k]), k)
		}
		b, _ := json.Marshal(counts)
		fmt.Printf("perfbench: %s counts %s\n", workload, b)
	}
	fmt.Printf("perfbench: %s: %d/%d operations failed\n", workload, total.Failed, total.Attempted)
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: total.Failed == 0, Attempted: total.Attempted, Failed: total.Failed, Metrics: map[string]map[string]any{}}
	var missing []string
	for _, m := range want {
		v, ok := total.Metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		out.Metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: metrics not measured: %s\n", strings.Join(missing, ", "))
		return 1
	}
	if out.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operations attempted")
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// runChild starts this binary in child mode and returns its result and the
// time from process start until it reported being set up. The child runs
// in its own process group so that a timeout also stops the capture
// workers it started.
func runChild(ctx context.Context, env, args []string) (*childResult, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = env
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	var setup time.Duration
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == readyLine && setup == 0 {
			setup = time.Since(start)
			continue
		}
		if last != "" {
			fmt.Println(last)
		}
		last = line
	}
	_, _ = io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	if setup == 0 {
		return nil, 0, errors.New("child never reported being set up")
	}
	res := &childResult{}
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return nil, 0, fmt.Errorf("child result %q: %w", last, err)
	}
	return res, setup, nil
}

// copyGoCache gives a child its own Go build cache, a hard-linked copy of
// base, so the native-capture modules it builds find exactly the cache the
// benchmark binary was built with and never the modules of an earlier run.
// An empty base leaves the default cache in place.
func copyGoCache(base, dst string) (string, error) {
	if base == "" {
		return "", nil
	}
	err := filepath.WalkDir(base, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(base, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return os.Link(p, target)
	})
	if err != nil {
		return "", fmt.Errorf("copy Go build cache: %w", err)
	}
	return dst, nil
}

func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
