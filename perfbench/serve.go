package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/nativecap"
	"repro/internal/opt"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/spt/client"
)

// servePoint is one simulate request's machine configuration.
type servePoint struct {
	bench, recovery, regcheck string
	srb                       int
}

func (p servePoint) key() string {
	return fmt.Sprintf("%s|%s|%s|%d", p.bench, p.recovery, p.regcheck, p.srb)
}

func (p servePoint) request() client.SimulateRequest {
	return client.SimulateRequest{Benchmark: p.bench, Recovery: p.recovery, RegCheck: p.regcheck, SRB: p.srb}
}

// defaultPoint is the Table 1 machine, the point of every fill and hit
// request (sent with every knob left at its default).
func defaultPoint(b string) servePoint { return servePoint{b, "srxfc", "value", 1024} }

// servePoints lists a benchmark's default point followed by the points a
// miss can ask for.
func servePoints(b string) []servePoint {
	out := []servePoint{defaultPoint(b)}
	for _, srb := range []int{16, 32, 64, 128, 256, 512, 1024} {
		for _, rec := range []string{"srxfc", "squash"} {
			for _, rc := range []string{"value", "update"} {
				if p := (servePoint{b, rec, rc, srb}); p != out[0] {
					out = append(out, p)
				}
			}
		}
	}
	return out
}

// A repetition's request stream is a hit segment, streamBlocks blocks of
// the hits in hitMix in seeded order, then a miss segment of missCount
// seeded new points of missBench. Every seed sends the same work. The
// segments are apart so that a 20 ms miss replay never sits under a 1 ms
// hit's latency, and serve_hit_rps counts hit time only.
const (
	streamBlocks = 40
	missCount    = 24
	missBench    = "parser"
)

// hitMix is how many of a block's hits go to each benchmark. Hit latency
// comes in per-benchmark classes (0.5 ms crafty … 3.3 ms mcf); a
// percentile that falls on the edge between two classes jumps with the
// seed. With gcc at 40% of the hits the median lies inside the gcc class,
// and with mcf, the slowest, at 20% the 90th percentile lies inside the
// mcf class.
var hitMix = map[string]int{
	"bzip2": 1, "crafty": 1, "gap": 1, "gcc": 8, "gzip": 1,
	"mcf": 4, "parser": 1, "twolf": 1, "vortex": 1, "vpr": 1,
}

// stream is the seeded request sequence of repetition rep: its hit
// segment and its miss segment.
func stream(seed int64, rep int) (hits, misses []servePoint) {
	r := rand.New(rand.NewSource(seed*1000003 + int64(rep)))
	for k := 0; k < streamBlocks; k++ {
		var block []servePoint
		for _, b := range bench.Names() {
			for n := 0; n < hitMix[b]; n++ {
				block = append(block, defaultPoint(b))
			}
		}
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		hits = append(hits, block...)
	}
	misses = servePoints(missBench)[1:]
	r.Shuffle(len(misses), func(i, j int) { misses[i], misses[j] = misses[j], misses[i] })
	return hits, misses[:missCount]
}

// servePath is the daemon: per repetition a fresh in-process sptd server
// (the configuration cmd/sptd builds by default) on a loopback listener,
// driven through spt/client by two closed-loop connections.
type servePath struct {
	c  *child
	nc *nativecap.Capturer

	fills, hitSecs []float64
	hitMs, missMs  []float64
	local          *artifact.Cache // warm integrity-checked cache of the probes
	localPrograms  map[string][2]*ir.Program
}

func (p *servePath) setup(ctx context.Context) error {
	if p.c.nativeDir == "" {
		return errors.New("serve needs a private -native-dir")
	}
	nc, err := nativecap.New(nativecap.Options{Dir: p.c.nativeDir, MaxBytes: 256 << 20})
	if err != nil {
		return err
	}
	p.nc = nc
	_, _, err = p.rep(ctx, -1)
	return err
}

func (p *servePath) close() {
	p.nc.Close()
}

// daemon is one repetition's server, listener and client.
type daemon struct {
	srv *service.Server
	hs  *http.Server
	tr  *http.Transport
	cl  *client.Client
}

func (p *servePath) start() (*daemon, error) {
	srv, err := service.New(service.Config{QueueCapacity: 64, CacheEntries: 4096, CacheBytes: 1 << 30, Native: p.nc})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}}
	go func() { _ = d.hs.Serve(ln) }()
	d.tr = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	d.cl = client.New("http://"+ln.Addr().String(), &http.Client{Transport: d.tr})
	return d, nil
}

// stop drains the server, closes the listener and connections, and
// collects the repetition's recordings so their capture arenas are free
// for the next server.
func (d *daemon) stop() error {
	err := d.srv.Drain(10 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if serr := d.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	d.tr.CloseIdleConnections()
	d.srv, d.hs, d.cl = nil, nil, nil
	runtime.GC()
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return err
}

// simulate sends one request and checks the response.
func (p *servePath) simulate(ctx context.Context, cl *client.Client, req client.SimulateRequest, pt servePoint) {
	resp, err := cl.Simulate(ctx, req)
	if err != nil {
		p.c.check(false, "serve %s: %v", pt.key(), err)
		return
	}
	got := *resp
	got.JobID = ""
	want, ok := p.c.exp.Serve[pt.key()]
	p.c.check(ok && got == want, "serve %s: response differs from the local run", pt.key())
}

func (p *servePath) rep(ctx context.Context, i int) (time.Duration, pathCounts, error) {
	return p.run(ctx, i, nil)
}

func (p *servePath) tracedRep(ctx context.Context, i int, tr *tracer) (time.Duration, error) {
	d, _, err := p.run(ctx, i, tr)
	if err != nil {
		return 0, err
	}
	return d, p.probes(ctx, i, tr)
}

// run is one repetition: start a server, fill it with one default-point
// simulate per benchmark, then play the seeded stream on two connections.
// The set-up repetition (i < 0) stops after the fill, which builds and
// verifies the native capture modules.
func (p *servePath) run(ctx context.Context, i int, tr *tracer) (time.Duration, pathCounts, error) {
	var pc pathCounts
	ncBefore := p.nc.Stats()
	t0 := time.Now()
	d, err := p.start()
	if err != nil {
		return 0, pc, err
	}
	names := bench.Names()
	call := func(lane int, name string, req client.SimulateRequest, pt servePoint) {
		if tr == nil {
			p.simulate(ctx, d.cl, req, pt)
			return
		}
		tr.do(i, lane, name, func() { p.simulate(ctx, d.cl, req, pt) })
	}
	tFill := time.Now()
	onLanes(len(names), func(lane, k int) error {
		call(lane, "client.fill", client.SimulateRequest{Benchmark: names[k]}, defaultPoint(names[k]))
		return nil
	})
	fill := time.Since(tFill)

	var hits, misses []servePoint
	if i >= 0 {
		hits, misses = stream(p.c.seed, i)
	}
	// A hit is sent with every knob at its default, a miss with its point.
	segment := func(pts []servePoint, span string, hit bool) ([]float64, time.Duration) {
		lat := make([]float64, len(pts))
		t := time.Now()
		onLanes(len(pts), func(lane, k int) error {
			req := pts[k].request()
			if hit {
				req = client.SimulateRequest{Benchmark: pts[k].bench}
			}
			s := time.Now()
			call(lane, span, req, pts[k])
			lat[k] = float64(time.Since(s)) / 1e6
			return nil
		})
		return lat, time.Since(t)
	}
	hitMs, hitDur := segment(hits, "client.hit", true)
	missMs, _ := segment(misses, "client.miss", false)
	total := time.Since(t0)

	st := d.srv.CacheStats()
	if err := d.stop(); err != nil {
		return 0, pc, err
	}
	ncAfter := p.nc.Stats()
	for _, name := range names {
		row := p.c.exp.Suite[name]
		pc.simInstrs += row.BaseInstrs + row.SPTInstrs
		pc.events += row.BaseInstrs + row.SPTInstrs
		pc.engines += 2
	}
	for _, pt := range misses {
		pc.simInstrs += p.c.exp.Suite[pt.bench].SPTInstrs
		pc.engines++
	}
	pc.recordingBytes = st.Bytes
	pc.hitRatio = st.HitRatio()
	pc.integrityEvictions = st.IntegrityEvictions
	native := ncAfter.Native - ncBefore.Native
	captures := native + (ncAfter.FallbackNoToolchain - ncBefore.FallbackNoToolchain) +
		(ncAfter.FallbackBuildError - ncBefore.FallbackBuildError) +
		(ncAfter.FallbackRunError - ncBefore.FallbackRunError) +
		(ncAfter.FallbackMismatch - ncBefore.FallbackMismatch)
	if captures > 0 {
		pc.nativeRatio = float64(native) / float64(captures)
	}

	if i >= 0 && tr == nil {
		p.fills = append(p.fills, fill.Seconds())
		p.hitMs = append(p.hitMs, hitMs...)
		p.missMs = append(p.missMs, missMs...)
		p.hitSecs = append(p.hitSecs, hitDur.Seconds())
	}
	return total, pc, nil
}

func (p *servePath) samples(s map[string][]float64) {
	s["serve_fill_s"] = p.fills
	s["serve_hit_ms"] = p.hitMs
	s["serve_miss_ms"] = p.missMs
	s["serve_hit_segment_s"] = p.hitSecs
}

// probes time the layers under the daemon on a warm, integrity-checked
// cache of the probe's own: the pipeline without HTTP, fingerprinting,
// native capture and single-engine replay.
func (p *servePath) probes(ctx context.Context, i int, tr *tracer) error {
	if p.local == nil {
		p.local = artifact.NewBoundedBytes(4096, 1<<30)
		p.local.EnableIntegrity()
		p.localPrograms = map[string][2]*ir.Program{}
		for _, name := range bench.Names() {
			if _, err := p.pipeline(ctx, name); err != nil {
				return err
			}
			b, _ := bench.ByName(name)
			cres, err := harness.CompileBenchmarkCached(ctx, name, 1, p.local)
			if err != nil {
				return err
			}
			p.localPrograms[name] = [2]*ir.Program{opt.Optimize(b.Build(1)), cres.Program}
		}
	}
	hits, misses := stream(p.c.seed, i)
	for _, pt := range hits {
		var r *harness.BenchRun
		var err error
		tr.probe(i, "harness.hit", 0, func() { r, err = p.pipeline(ctx, pt.bench) })
		if err != nil {
			return err
		}
		p.c.check(p.c.exp.suiteMatches(pt.bench, r.Baseline, r.SPT, nil), "serve %s: pipeline result differs", pt.key())
	}
	for _, name := range bench.Names() {
		progs := p.localPrograms[name]
		a, b := progs[0].Clone(), progs[1].Clone()
		tr.probe(i, "artifact.fingerprint", 0, func() {
			artifact.Fingerprint(a)
			artifact.Fingerprint(b)
		})
	}
	// Native capture of the swept programs, beside the sweep's
	// interpreter capture of the same programs, and one single-engine
	// replay per program at a miss point.
	for _, name := range []string{"parser", "mcf", "gcc"} {
		progs := p.localPrograms[name]
		for k, prog := range progs {
			lp, err := interp.Load(prog)
			if err != nil {
				return err
			}
			var rec *trace.Recording
			tr.probe(i, "nativecap.capture", 0, func() { rec, err = p.nc.Capture(ctx, prog, lp, 0) })
			if err != nil {
				return err
			}
			want := p.c.exp.Suite[name].BaseInstrs
			if k == 1 {
				want = p.c.exp.Suite[name].SPTInstrs
			}
			if k == 1 && name == missBench {
				err = p.replayProbe(ctx, i, tr, misses[:8], lp, rec)
			}
			p.c.check(rec.Steps() == want, "serve %s: native capture ran %d steps", name, rec.Steps())
			rec.Release()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// replayProbe replays the miss benchmark's SPT capture into one engine per
// miss point.
func (p *servePath) replayProbe(ctx context.Context, i int, tr *tracer, pts []servePoint, lp *interp.Program, rec *trace.Recording) error {
	for _, pt := range pts {
		cfg, err := service.ConfigFromRequest(pt.request())
		if err != nil {
			return err
		}
		var rs *arch.RunStats
		tr.probe(i, "arch.replay", 0, func() { rs, err = arch.NewMachine(lp, cfg).RunRecordedContext(ctx, rec) })
		if err != nil {
			return err
		}
		want := p.c.exp.Serve[pt.key()].SPT
		p.c.check(service.Summarize(rs) == want, "serve %s: replay differs from the expected values", pt.key())
	}
	return nil
}

// pipeline is the daemon's simulate pipeline on the probe cache.
func (p *servePath) pipeline(ctx context.Context, name string) (*harness.BenchRun, error) {
	return harness.RunBenchmarkGuarded(ctx, name, 1, arch.DefaultConfig(), harness.GuardOptions{
		Artifacts: p.local, RecordTraces: true, Native: p.nc,
	})
}

func (p *servePath) layers(tr *tracer, m map[string]float64) {
	m["nativecap.capture_ms"] = tr.medianRep("nativecap.capture")
	m["arch.replay_ms"] = median(tr.durations("arch.replay"))
	m["harness.hit_ms"] = median(tr.durations("harness.hit"))
	m["artifact.fingerprint_ms"] = median(tr.durations("artifact.fingerprint"))
	m["client.hit_ms"] = median(tr.durations("client.hit"))
	m["service.overhead_ms"] = m["client.hit_ms"] - m["harness.hit_ms"]
}
