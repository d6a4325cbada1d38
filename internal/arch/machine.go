package arch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/multispec"
	"repro/internal/profiler"
	"repro/internal/trace"
	"repro/internal/walk"
)

// ErrCycleLimit is returned when a simulation exceeds Config.CycleLimit.
var ErrCycleLimit = errors.New("arch: cycle budget exceeded")

// ErrCorruptTrace is returned when the engine receives a trace event whose
// coordinates do not resolve to a loaded instruction. The engine stops
// simulating instead of indexing out of bounds.
var ErrCorruptTrace = errors.New("arch: corrupt trace event")

// Machine simulates one program on the SPT processor (or on a single core
// when cfg.SPT is false).
type Machine struct {
	lp  *interp.Program
	cfg Config
	mw  func(trace.Handler) trace.Handler
}

// NewMachine prepares a simulation of the loaded program.
func NewMachine(lp *interp.Program, cfg Config) *Machine {
	return &Machine{lp: lp, cfg: cfg}
}

// SetTraceMiddleware interposes mw between the interpreter and the SPT
// engine on the next Run. It exists for fault injection (dropping or
// corrupting events) and observation; nil restores the direct path.
func (m *Machine) SetTraceMiddleware(mw func(trace.Handler) trace.Handler) { m.mw = mw }

// Run executes the program under the sequential interpreter, feeds the
// trace through the SPT engine, and returns the simulation statistics.
func (m *Machine) Run() (*RunStats, error) { return m.RunContext(context.Background()) }

// RunContext is Run with cancellation and deadline support: ctx is checked
// periodically by the interpreter (every ~1024 steps), and the engine's
// cycle budget (Config.CycleLimit) cancels the run from the inside. The
// returned error distinguishes budget exhaustion (ErrCycleLimit,
// interp.ErrStepLimit, context deadline) from structural failures.
func (m *Machine) RunContext(ctx context.Context) (*RunStats, error) {
	if err := m.cfg.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	e := newEngine(m.lp, m.cfg)
	defer e.releaseBuf()
	e.cancel = cancel
	im := interp.New(m.lp)
	if m.cfg.StepLimit > 0 {
		im.SetStepLimit(m.cfg.StepLimit)
	}
	im.SetContext(ctx)
	var h trace.Handler = e
	if m.mw != nil {
		h = m.mw(e)
	}
	im.SetHandler(h)
	res, err := im.Run()
	return e.result(err, false, res.Steps)
}

// result resolves the engine's outcome once its producer has stopped —
// the interpreter of a fused run or the broadcast pass of a replay. perr
// is the producer's error, limited reports that the producer was cut off
// at Config.StepLimit, and steps is the program's dynamic instruction
// count. An engine abort (cycle budget, corrupt event) outranks perr,
// which is usually just the producer's view of the resulting
// cancellation; perr outranks the step limit; a clean stream is drained.
func (e *engine) result(perr error, limited bool, steps int64) (*RunStats, error) {
	switch {
	case e.failure != nil:
		return nil, e.failure
	case perr != nil:
		return nil, perr
	case limited:
		return nil, interp.ErrStepLimit
	}
	e.finish()
	if e.failure != nil {
		// Short traces fit entirely inside the lookahead window, so budget
		// exhaustion can first surface while draining.
		return nil, e.failure
	}
	e.stats.Instrs = steps
	return e.stats, nil
}

// storeRec is one main-thread post-fork store for the speculative load
// address buffer check.
type storeRec struct {
	addr int64
	time int64
}

// specThread is the state of one in-flight speculative thread. Thread
// records are pooled per engine: the slices below keep their backing arrays
// across windows, so arming a thread in steady state allocates nothing. An
// empty (length-0) snapshot is equivalent to a missing one — every consumer
// guards by length.
type specThread struct {
	forkPos  int64 // absolute event index of the spt_fork
	forkTime int64 // cycle the speculative thread may start
	frame    int64 // frame of the forking loop
	fn       int32
	startID  int32  // first instruction id of the fork target block
	startPos int64  // absolute index of the start-point arrival; -1 until seen
	chainID  uint64 // version in the inter-thread chain (commit order)

	snapshot []int64 // fork-time register file of the loop frame
	mainRegs []int64 // architectural view of the loop frame registers since fork
	written  []bool  // registers written after the fork
	// inherit marks live-ins already wrong at spawn time: a thread spawned
	// by an in-flight window copies its register file from speculative
	// state, so a misspeculated last writer (or an inherited violation of
	// the spawner) taints the copy before the thread even starts.
	inherit []bool
	stores  []storeRec

	plan *multispec.SlicePlan // live-in pre-computation coverage (slice mode)
	loop *LoopStats           // loop the fork belongs to
}

// engine is the trace-driven SPT simulation core. It buffers a sliding
// window of events so the speculative thread can execute "future" trace
// entries while the main thread is still behind, exactly like the paper's
// two-pipeline trace simulator.
type engine struct {
	lp    *interp.Program
	cfg   Config
	hier  *cache.Hierarchy
	bp    *bpred.GAg
	main  *pipeline
	stats *RunStats

	buf  []trace.Event
	base int64 // absolute index of buf[0]
	pos  int64 // absolute index of the next main-thread event
	done bool

	// In-flight speculative threads in spawn (= commit) order. On the
	// classic 2-core machine at most one is armed; with Cores=N up to N-1
	// chain up, each covering a later iteration range.
	specs []*specThread
	chain multispec.Chain     // commit-arbitration version chain
	sched multispec.Scheduler // spawn policy (cores, stride, eager restart)
	// coreFree holds one entry per idle speculative core: the cycle the
	// core last became free. Arming a thread pops the front (FIFO — cores
	// free in commit order); retiring a window pushes. A spawn's fork time
	// is clamped to its core's free time, which is what makes Cores=4
	// behave differently from Cores=8 under deep speculation.
	coreFree []int64
	planner  *multispec.Planner // live-in slice planner (slice mode only)
	// chainSSB carries committed windows' speculative stores to their
	// in-flight successors: addr -> whether the last store misspeculated.
	// Only populated while a committed window leaves successors behind, so
	// the classic one-thread machine never sees it.
	chainSSB map[int64]bool

	// walk follows the main thread's frames and loop activations; each
	// activation carries the stats of its loop. loopStats caches those
	// stats by function and dense loop id.
	walk      *walk.Walker[struct{}, *LoopStats]
	loopStats [][]*LoopStats
	lastCm    int64

	cancel  context.CancelFunc
	failure error // budget exhaustion or corrupt input; simulation stops

	// Scratch state reused across events and speculation windows so the
	// simulator's steady state allocates nothing (locked in by
	// BenchmarkSpeculationEpisodes / TestSpeculationSteadyStateAllocs).
	specFree        []*specThread // pooled thread records (commit grabs the next before releasing the old, so two circulate)
	specPipe        *pipeline     // persistent speculative-core pipeline
	specBd          Breakdown     // sink for the speculative pipeline's accounting
	srbScratch      []srbEntry    // SRB entries, preallocated to cfg.SRBSize
	reexecScratch   []int         // replayed entry indices
	violatedScratch []bool        // violated live-in registers
	regsScratch     []int64       // commit-time register tracking (absorb)
	lastWriter      map[specWKey]int
	lwFrame         []int32 // loop-frame register writers (dense fast path; -1 = none)
	ssb             map[int64]int
	specFrameParent map[int64]int64
	specFrameRet    map[int64]ir.Reg
	snapPool        [][]int64 // recycled fork-snapshot buffers
}

func newEngine(lp *interp.Program, cfg Config) *engine {
	st := &RunStats{PerLoop: map[profiler.LoopKey]*LoopStats{}}
	e := &engine{
		lp:    lp,
		cfg:   cfg,
		hier:  cache.New(cfg.Cache),
		bp:    bpred.New(cfg.BPredEntries),
		stats: st,
		walk:  walk.New[struct{}, *LoopStats](lp),
		buf:   grabBuf(),
	}
	e.loopStats = make([][]*LoopStats, len(e.walk.Funcs))
	for fi, f := range e.walk.Funcs {
		e.loopStats[fi] = make([]*LoopStats, len(f.Loops))
	}
	e.main = newPipeline(cfg.IssueWidth, cfg.BranchPenalty, &st.Breakdown)
	e.specPipe = newPipeline(cfg.IssueWidth, cfg.BranchPenalty, &e.specBd)
	e.sched = multispec.NewScheduler(cfg.Sched, cfg.EffCores(), cfg.SchedStride)
	e.coreFree = make([]int64, e.sched.SpecCores())
	e.chainSSB = map[int64]bool{}
	if cfg.SPT && cfg.LiveIn == multispec.LiveInSlice {
		e.planner = multispec.NewPlanner(lp.IR)
	}
	e.srbScratch = make([]srbEntry, 0, cfg.SRBSize)
	e.lastWriter = map[specWKey]int{}
	e.ssb = map[int64]int{}
	e.specFrameParent = map[int64]int64{}
	e.specFrameRet = map[int64]ir.Reg{}
	return e
}

// bufPool recycles event-window backing arrays across engines. A window
// grows to a few megabytes on long traces, and a sweep builds one engine per
// variant — without pooling every engine re-grows (and the runtime re-zeroes)
// that array from scratch, which dominates the allocation profile.
var bufPool sync.Pool

// grabBuf returns a recycled event window (length 0) or nil when the pool is
// empty, in which case append grows a fresh one.
func grabBuf() []trace.Event {
	if v := bufPool.Get(); v != nil {
		return (*v.(*[]trace.Event))[:0]
	}
	return nil
}

// releaseBuf returns the engine's event window to the pool once the run is
// over. The full capacity is cleared first: compact leaves stale events (and
// their snapshot aliases) beyond len, and a pooled window must not pin them.
func (e *engine) releaseBuf() {
	if cap(e.buf) == 0 {
		e.buf = nil
		return
	}
	full := e.buf[:cap(e.buf)]
	clear(full)
	b := full[:0]
	bufPool.Put(&b)
	e.buf = nil
}

// grabSpec returns a pooled speculative-thread record; its scratch slices
// keep their capacity across windows.
func (e *engine) grabSpec() *specThread {
	if n := len(e.specFree); n > 0 {
		s := e.specFree[n-1]
		e.specFree = e.specFree[:n-1]
		return s
	}
	return &specThread{}
}

// releaseSpec returns a finished thread record to the pool.
func (e *engine) releaseSpec(s *specThread) {
	s.loop = nil
	s.plan = nil
	e.specFree = append(e.specFree, s)
}

// freeCore returns a speculative core to the idle pool at cycle t.
func (e *engine) freeCore(t int64) {
	e.coreFree = append(e.coreFree, t)
}

// claimCore pops the longest-idle speculative core, returning the cycle it
// became free. Callers check len(e.coreFree) > 0 first.
func (e *engine) claimCore() int64 {
	t := e.coreFree[0]
	e.coreFree = append(e.coreFree[:0], e.coreFree[1:]...)
	return t
}

// fail aborts the simulation with the given cause: further events are
// ignored and the producing interpreter is cancelled.
func (e *engine) fail(err error) {
	if e.failure == nil {
		e.failure = err
		if e.cancel != nil {
			e.cancel()
		}
	}
}

// Quit implements trace.Quitter: a broadcast pass sheds the engine once it
// has aborted (its Event is a no-op from then on).
func (e *engine) Quit() bool { return e.failure != nil }

// Event implements trace.Handler: buffer the event and simulate as far as
// the lookahead window allows. Events whose coordinates do not resolve to a
// loaded instruction abort the run with ErrCorruptTrace instead of
// corrupting engine state.
func (e *engine) Event(ev *trace.Event) {
	if e.failure != nil {
		return
	}
	if ev.Func < 0 || int(ev.Func) >= e.lp.NumFuncs() ||
		ev.ID < 0 || int(ev.ID) >= e.lp.FuncInstrCount(ev.Func) {
		e.fail(fmt.Errorf("%w: func=%d id=%d", ErrCorruptTrace, ev.Func, ev.ID))
		return
	}
	e.buf = append(e.buf, *ev)
	if ev.Snapshot != nil {
		// The producer reuses its snapshot buffer, so the buffered event
		// needs its own copy; recycled buffers come back via compact.
		var buf []int64
		if n := len(e.snapPool); n > 0 {
			buf = e.snapPool[n-1]
			e.snapPool = e.snapPool[:n-1]
		}
		e.buf[len(e.buf)-1].Snapshot = append(buf[:0], ev.Snapshot...)
	}
	lookahead := int64(e.cfg.Window)
	end := e.base + int64(len(e.buf)) // step never appends or compacts
	for e.failure == nil && end-e.pos > lookahead && e.pos < end {
		e.step()
	}
	if len(e.buf) > 4096 { // compact cannot fire below this; skip the call
		e.compact()
	}
}

// finish drains the remaining events after the trace ends.
func (e *engine) finish() {
	e.done = true
	for e.failure == nil && e.pos < e.base+int64(len(e.buf)) {
		e.step()
	}
	e.stats.Cycles = e.main.now()
	e.stats.BranchLookups = e.bp.Lookups
	e.stats.BranchMispredicts = e.bp.Mispredicts
	e.stats.Cache = e.hier.Stats()
	// Fold issue slots into execution cycles.
	e.stats.Breakdown.Exec += (e.stats.Breakdown.IssueSlots + int64(e.cfg.IssueWidth) - 1) / int64(e.cfg.IssueWidth)
	e.stats.Breakdown.IssueSlots = 0
}

// compact drops buffered events no longer reachable by any consumer.
func (e *engine) compact() {
	low := e.pos
	if len(e.specs) > 0 && e.specs[0].forkPos < low {
		low = e.specs[0].forkPos // oldest thread: smallest fork position
	}
	// Compact only once the consumed prefix dominates the buffer: every
	// copied tail element is then paid for by at least one consumed event,
	// so the shift cost amortizes to O(1) per event instead of re-copying a
	// long live window every 4096 events.
	if n := low - e.base; n > 4096 && n > int64(len(e.buf))/2 {
		// Reclaim the dropped events' snapshot buffers: nothing aliases them
		// (speculative threads copy fork snapshots into their own arrays).
		for i := range e.buf[:n] {
			if s := e.buf[i].Snapshot; s != nil {
				e.snapPool = append(e.snapPool, s)
			}
		}
		e.buf = append(e.buf[:0], e.buf[n:]...)
		e.base += n
	}
}

func (e *engine) at(abs int64) *trace.Event {
	return &e.buf[abs-e.base]
}

func (e *engine) end() int64 { return e.base + int64(len(e.buf)) }

// step processes one main-thread event.
func (e *engine) step() {
	if e.cfg.CycleLimit > 0 && e.main.now() >= e.cfg.CycleLimit {
		e.fail(fmt.Errorf("%w: %d cycles at limit %d", ErrCycleLimit, e.main.now(), e.cfg.CycleLimit))
		return
	}
	// Arrival at the oldest speculative thread's start-point?
	if len(e.specs) > 0 && e.specs[0].startPos == e.pos {
		e.commitWindow()
		// commitWindow advanced e.pos past the committed region; continue
		// from there on the next step.
		return
	}
	ev := e.at(e.pos)
	in := e.lp.InstrAt(ev.Func, ev.ID)

	e.bookkeep(ev, in, e.pos)
	_, complete := e.main.exec(ev, in, e.hier, e.bp, true)
	e.attributeCycles()

	switch in.Op {
	case ir.SptFork:
		if e.cfg.SPT {
			e.handleFork(ev, complete)
		}
	case ir.SptKill:
		// Loop exit retires the whole chain: every in-flight thread ran
		// down a path the loop never takes.
		for _, s := range e.specs {
			e.stats.Kills++
			if s.loop != nil {
				s.loop.Kills++
			}
			multispec.Global.SquashLoopExit.Add(1)
			e.freeCore(e.main.now())
			e.releaseSpec(s)
		}
		e.specs = e.specs[:0]
		e.chain.Reset()
		if len(e.chainSSB) > 0 {
			clear(e.chainSSB)
		}
	case ir.Ret:
		e.main.dropFrame(ev.Frame)
	}
	e.pos++
}

// bookkeep maintains frame linkage, loop tracking and (when speculative
// threads are pending) the architectural post-fork register/store views. It
// must see every event exactly once, in trace order; pos is the event's
// absolute trace index, so threads forked later in the trace (whose
// register copy already reflects earlier events) skip them.
func (e *engine) bookkeep(ev *trace.Event, in *ir.Instr, pos int64) {
	fr, _ := e.walk.Step(ev.Func, ev.Frame, ev.ID)
	for _, a := range e.walk.Opened() {
		a.X = e.loopStatsOf(fr.Fn, a.Loop)
	}
	// Arrival at any enclosing loop's iteration start counts one iteration
	// of the innermost loop.
	loops := e.walk.Funcs[fr.Fn].Loops
	for _, a := range fr.Acts {
		if loops[a.Loop].StartID == ev.ID {
			fr.Acts[len(fr.Acts)-1].X.Iterations++
			break
		}
	}

	for _, s := range e.specs {
		if pos <= s.forkPos {
			// The thread's register copy postdates this event; so do every
			// younger thread's (specs is sorted by fork position).
			break
		}
		// The in-range checks below guard against fork snapshots that are
		// shorter than the frame's register file (possible only under fault
		// injection): out-of-range registers simply aren't tracked.
		switch in.Op {
		case ir.Store:
			s.stores = append(s.stores, storeRec{addr: ev.Addr, time: e.main.now()})
		case ir.Ret:
			// A return into the loop frame writes the call's destination.
			if returnsInto(fr, s.frame) && int(fr.RetDst) < len(s.mainRegs) {
				s.mainRegs[fr.RetDst] = ev.Val
				s.written[fr.RetDst] = true
			}
		}
		if ev.Frame == s.frame {
			if d := in.Def(); d != ir.NoReg && int(d) < len(s.mainRegs) {
				s.mainRegs[d] = ev.Val
				s.written[d] = true
			}
		}
	}

	if in.Op == ir.Ret {
		e.walk.Return(fr)
	}
}

// returnsInto reports whether fr's return value lands in a register of
// frame: fr was called from frame by a Call with a destination.
func returnsInto(fr *walk.Frame[struct{}, *LoopStats], frame int64) bool {
	return fr.Parent != nil && fr.Parent.ID == frame && fr.RetDst != ir.NoReg
}

// loopStatsOf returns the stats of loop id of function fn. Loop identity
// is the (function, header label) pair, with the transformation's
// "spt.start." prefix stripped so baseline and SPT runs of the same
// benchmark share keys.
func (e *engine) loopStatsOf(fn, id int32) *LoopStats {
	if ls := e.loopStats[fn][id]; ls != nil {
		return ls
	}
	f := e.walk.Funcs[fn]
	k := profiler.LoopKey{Func: f.IR.Name, Header: NormalizeHeader(f.IR.Blocks[f.Loops[id].Header].Label)}
	ls := e.stats.PerLoop[k]
	if ls == nil {
		ls = &LoopStats{Key: k}
		e.stats.PerLoop[k] = ls
	}
	e.loopStats[fn][id] = ls
	return ls
}

// curLoop returns the innermost active loop's stats, or nil.
func (e *engine) curLoop() *LoopStats {
	if n := len(e.walk.Active); n > 0 {
		return e.walk.Active[n-1].X
	}
	return nil
}

// NormalizeHeader strips the SPT transformation prefix from a header label.
func NormalizeHeader(label string) string {
	if s, ok := strings.CutPrefix(label, "spt.start."); ok {
		return s
	}
	return label
}

// attributeCycles charges main-pipeline progress since the last event to
// every active loop (inclusive attribution: a loop's cycles include its
// callees' loops, matching the profiler's coverage accounting).
func (e *engine) attributeCycles() {
	now := e.main.now()
	if now <= e.lastCm {
		return
	}
	d := now - e.lastCm
	for _, a := range e.walk.Active {
		a.X.Cycles += d
	}
	e.lastCm = now
}

// handleFork arms a speculative core if one is idle.
func (e *engine) handleFork(ev *trace.Event, complete int64) {
	e.handleForkFrom(ev, ev.Frame, complete, e.pos, e.pos+1)
}

// handleForkFrom arms a speculative core for a fork event observed at
// forkPos, scanning for the start-point from scanFrom onward. Re-forks
// after a commit pass scanFrom = the commit end, since earlier occurrences
// of the start block were already absorbed.
func (e *engine) handleForkFrom(ev *trace.Event, frame int64, complete, forkPos, scanFrom int64) {
	if len(e.coreFree) == 0 {
		e.stats.NoForks++
		return
	}
	in := e.lp.InstrAt(ev.Func, ev.ID)
	bi := e.lp.LabelIndex(ev.Func, in.Target)
	if bi < 0 {
		e.stats.NoForks++
		return
	}
	startID := e.lp.BlockStart(ev.Func, bi)
	startPos := e.findStart(frame, startID, scanFrom)
	if startPos < 0 {
		// The target iteration never begins inside the lookahead window:
		// the loop is exiting (the spt_kill will arrive) or the iteration
		// is far larger than the window. The speculative thread runs down
		// a wrong path and is killed; no commit will happen.
		e.stats.NoForks++
		return
	}
	if n := len(e.specs); n > 0 && startPos <= e.specs[n-1].startPos {
		// Version-chain invariant: threads spawn — and therefore commit —
		// in start-point order. A fork whose start-point does not extend
		// the chain is suppressed.
		e.stats.NoForks++
		return
	}
	e.armThread(ev, frame, complete, forkPos, bi, startID, startPos, e.curLoop())
}

// findStart locates the start-point: the stride-th next occurrence of the
// target block's first instruction in the forking frame, or -1 if the
// frame returns (or the window ends) first.
func (e *engine) findStart(frame int64, startID int32, scanFrom int64) int64 {
	seen := 0
	for p := scanFrom; p < e.end(); p++ {
		x := e.at(p)
		if x.Frame != frame {
			continue
		}
		if x.ID == startID {
			if seen++; seen >= e.sched.Stride() {
				return p
			}
			continue
		}
		if e.lp.InstrAt(x.Func, x.ID).Op == ir.Ret {
			break // the loop frame returns before reaching the start-point
		}
	}
	return -1
}

// armThread claims a speculative core and arms a thread on it. The fork
// time is the fork's completion plus the register-file copy (plus the
// live-in pre-computation slice in slice mode), but never earlier than the
// moment the claimed core became free.
func (e *engine) armThread(ev *trace.Event, frame int64, complete, forkPos int64, bi, startID int32, startPos int64, loop *LoopStats) *specThread {
	s := e.grabSpec()
	s.forkPos = forkPos
	desired := complete + int64(e.cfg.RFCopyCycles)
	if e.planner != nil {
		s.plan = e.planner.Plan(ev.Func, bi)
		desired += s.plan.Cycles
	}
	if free := e.claimCore(); free > desired {
		desired = free
	}
	s.forkTime = desired
	s.frame = frame
	s.fn = ev.Func
	s.startID = startID
	s.startPos = startPos
	s.chainID = e.chain.Spawn()
	s.loop = loop
	s.stores = s.stores[:0]
	s.inherit = s.inherit[:0]
	if n := len(ev.Snapshot); n > 0 {
		s.snapshot = append(s.snapshot[:0], ev.Snapshot...)
		s.mainRegs = append(s.mainRegs[:0], ev.Snapshot...)
		if cap(s.written) < n {
			s.written = make([]bool, n)
		} else {
			s.written = s.written[:n]
			clear(s.written)
		}
	} else {
		s.snapshot = s.snapshot[:0]
		s.mainRegs = s.mainRegs[:0]
		s.written = s.written[:0]
	}
	e.specs = append(e.specs, s)
	e.stats.Windows++
	if s.loop != nil {
		s.loop.Windows++
	}
	return s
}
