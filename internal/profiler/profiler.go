// Package profiler runs an IR program under the sequential interpreter and
// gathers the annotations the SPT compiler's cost-driven framework needs
// (Figure 4 of the paper): reach counts per loop-body instruction,
// cross-iteration register and memory dependence frequencies, iteration-
// start value patterns for software value prediction, trip counts, and the
// loop coverage statistics behind Figures 6 and 7.
package profiler

import (
	"context"
	"slices"

	"repro/internal/ddg"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/trace"
	"repro/internal/walk"
)

// LoopKey stably identifies a loop by function name and header label; it
// survives program cloning and transformation.
type LoopKey struct {
	Func   string
	Header string
}

// LoopProfile aggregates the runtime behaviour of one static loop.
type LoopProfile struct {
	Key LoopKey
	// Parent is the key of the dynamically enclosing loop, if any — the
	// loop (possibly in a calling function) that was active when this one
	// was first entered. Coverage accounting uses it to avoid double
	// counting nests.
	Parent *LoopKey

	Entries    int64 // times the loop was entered from outside
	Iterations int64 // body executions (start-point arrivals for candidates)

	InclInstrs int64 // dynamic instructions inside the loop, callees included
	InclCycles int64 // latency-weighted inclusive work

	// Exec counts executions of each body instruction (own frame only);
	// Exec[id]/Iterations is the instruction's reach probability.
	Exec map[int]int64

	// RegSamples counts iteration boundaries where register comparison was
	// possible; RegChange[r] counts boundaries at which r's iteration-start
	// value differed from the previous iteration's (value-based dependence
	// probability); RegWritten[r] counts iterations that wrote r at all
	// (update-based probability).
	RegSamples int64
	RegChange  map[ir.Reg]int64
	RegWritten map[ir.Reg]int64

	// MemDep counts, for (store-context, load-context) instruction pairs of
	// the loop body, how often the load read an address the previous
	// iteration stored to — the memory violation-candidate probabilities.
	// Contexts are body instruction ids; stores/loads performed inside
	// callees are attributed to the Call instruction.
	MemDep map[[2]int]int64

	// Values holds iteration-start value patterns for registers, feeding
	// software value prediction.
	Values map[ir.Reg]*ValueStats

	// CalleeCycles attributes latency-weighted work done inside callees to
	// the body Call instruction that entered them; CalleeCycles[id]/Exec[id]
	// is the average callee cost of call site id.
	CalleeCycles map[int]int64
}

// TripCount returns the average number of iterations per entry.
func (lp *LoopProfile) TripCount() float64 {
	if lp.Entries == 0 {
		return 0
	}
	return float64(lp.Iterations) / float64(lp.Entries)
}

// BodySize returns the average inclusive dynamic instructions per iteration.
func (lp *LoopProfile) BodySize() float64 {
	if lp.Iterations == 0 {
		return 0
	}
	return float64(lp.InclInstrs) / float64(lp.Iterations)
}

// BodyCycles returns the average inclusive latency-weighted work per
// iteration.
func (lp *LoopProfile) BodyCycles() float64 {
	if lp.Iterations == 0 {
		return 0
	}
	return float64(lp.InclCycles) / float64(lp.Iterations)
}

// ReachProb returns the probability that body instruction id executes in an
// iteration.
func (lp *LoopProfile) ReachProb(id int) float64 {
	if lp.Iterations == 0 {
		return 0
	}
	p := float64(lp.Exec[id]) / float64(lp.Iterations)
	if p > 1 {
		p = 1
	}
	return p
}

// RegChangeProb returns the value-based carried dependence probability of
// register r: the fraction of iterations that changed r's value.
func (lp *LoopProfile) RegChangeProb(r ir.Reg) float64 {
	if lp.RegSamples == 0 {
		return 0
	}
	return float64(lp.RegChange[r]) / float64(lp.RegSamples)
}

// RegWriteProb returns the update-based carried dependence probability of
// register r.
func (lp *LoopProfile) RegWriteProb(r ir.Reg) float64 {
	if lp.Iterations == 0 {
		return 0
	}
	return float64(lp.RegWritten[r]) / float64(lp.Iterations)
}

// CallSiteCycles returns the average callee work per execution of the body
// call instruction id.
func (lp *LoopProfile) CallSiteCycles(id int) float64 {
	n := lp.Exec[id]
	if n == 0 {
		return 0
	}
	return float64(lp.CalleeCycles[id]) / float64(n)
}

// MemDepProb returns the probability per iteration of the given
// (store-context, load-context) carried memory dependence.
func (lp *LoopProfile) MemDepProb(store, load int) float64 {
	if lp.Iterations == 0 {
		return 0
	}
	return float64(lp.MemDep[[2]int{store, load}]) / float64(lp.Iterations)
}

// Profile is the whole-program profiling result.
type Profile struct {
	TotalInstrs int64
	TotalCycles int64
	Loops       map[LoopKey]*LoopProfile
	Result      interp.Result
}

// Loop returns the profile of the given loop (nil if never executed).
func (p *Profile) Loop(k LoopKey) *LoopProfile { return p.Loops[k] }

// staticLoop is the profiler's view of one loop; statics are indexed by
// function and dense loop id.
type staticLoop struct {
	key       LoopKey
	startID0  int32 // first instruction id of the iteration start block
	candidate bool
	numRegs   int
	prof      *LoopProfile // created when the loop is first entered
}

// frameState is the profiler's per-frame data: a shadow register file.
type frameState struct {
	regs  []int64
	known []bool
}

// activation is the profiler's data for one dynamic instance of a loop.
type activation struct {
	sl   *staticLoop
	prof *LoopProfile
	ctx  int // last body-instruction id seen in the loop's own frame

	prevSnap  []int64
	prevKnown []bool
	snapValid bool
	written   []bool // regs written this iteration (dense; nil for non-candidates)

	// Cross-iteration store tracking. One generational map replaces the
	// classic prev/cur pair: every store is tagged with the iteration
	// generation it happened in, an iteration boundary is a single gen
	// increment, and stale entries are filtered on lookup instead of being
	// cleared (map clearing is O(capacity) and used to dominate loops with
	// many short iterations).
	stores   map[int64]storeGen // addr -> last store into it
	storeGen uint64             // generation tag of the current iteration
}

// storeGen is one remembered store: the loop-body context it came from and
// the iteration generation it belongs to. An entry is "current iteration"
// when gen matches the activation's storeGen, "previous iteration" at
// storeGen-1, and invisible otherwise.
type storeGen struct {
	ctx int
	gen uint64
}

type (
	frame = walk.Frame[frameState, activation]
	act   = walk.Act[frameState, activation]
)

// collector implements trace.Handler.
type collector struct {
	lp      *interp.Program
	w       *walk.Walker[frameState, activation]
	statics [][]staticLoop
	prof    *Profile
}

// Collect runs the program and returns its profile. stepLimit bounds
// execution (0 means a large default).
func Collect(lp *interp.Program, stepLimit int64) (*Profile, error) {
	return CollectContext(context.Background(), lp, stepLimit)
}

// CollectContext is Collect under a cancellation/deadline context: the
// profiling run aborts with a wrapped context error when ctx is done.
func CollectContext(ctx context.Context, lp *interp.Program, stepLimit int64) (*Profile, error) {
	c := &collector{
		lp:   lp,
		w:    walk.New[frameState, activation](lp),
		prof: &Profile{Loops: map[LoopKey]*LoopProfile{}},
	}
	c.buildStatics()
	m := interp.New(lp)
	if stepLimit > 0 {
		m.SetStepLimit(stepLimit)
	}
	m.SetContext(ctx)
	m.SetHandler(c)
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	c.prof.Result = res
	return c.prof, nil
}

// buildStatics keys every loop and marks the dependence-analyzable
// candidates, whose iterations start at the DDG's start block; other loops
// keep the walker's start.
func (c *collector) buildStatics() {
	p := c.lp.IR
	eff := ddg.ComputeEffects(p)
	c.statics = make([][]staticLoop, len(c.w.Funcs))
	for fi, fs := range c.w.Funcs {
		f := fs.IR
		loops := make([]staticLoop, len(fs.Loops))
		for i, l := range fs.Loops {
			loops[i] = staticLoop{
				key:      LoopKey{Func: f.Name, Header: f.Blocks[l.Header].Label},
				startID0: l.StartID,
				numRegs:  f.NumRegs,
			}
			if a := ddg.Analyze(p, f, fs.Graph, l.CFG, eff); a != nil {
				loops[i].candidate = true
				loops[i].startID0 = int32(f.Blocks[a.StartBlock].Instrs[0].ID)
			}
		}
		c.statics[fi] = loops
	}
}

func (c *collector) loopProfile(sl *staticLoop) *LoopProfile {
	if sl.prof == nil {
		sl.prof = &LoopProfile{
			Key:          sl.key,
			Exec:         map[int]int64{},
			RegChange:    map[ir.Reg]int64{},
			RegWritten:   map[ir.Reg]int64{},
			MemDep:       map[[2]int]int64{},
			Values:       map[ir.Reg]*ValueStats{},
			CalleeCycles: map[int]int64{},
		}
		c.prof.Loops[sl.key] = sl.prof
	}
	return sl.prof
}

// Event implements trace.Handler.
func (c *collector) Event(ev *trace.Event) {
	in := c.lp.InstrAt(ev.Func, ev.ID)
	lat := int64(in.Op.Latency())
	c.prof.TotalInstrs++
	c.prof.TotalCycles += lat

	fr, opened := c.w.Step(ev.Func, ev.Frame, ev.ID)
	if opened {
		// A recycled record keeps its storage; only the contents reset.
		n := c.w.Funcs[ev.Func].IR.NumRegs
		fr.X.regs, fr.X.known = cleared(fr.X.regs, n), cleared(fr.X.known, n)
	}
	if opened := c.w.Opened(); len(opened) > 0 {
		c.openActivations(opened)
	}
	// Iteration boundary: execution of the first instruction of a loop's
	// start-point block (robust even for single-block loops, where the back
	// edge re-enters the same block).
	for _, a := range fr.Acts {
		if ev.ID == a.X.sl.startID0 {
			c.iterationBoundary(fr, &a.X)
		}
	}

	// Attribute inclusive counts and contexts to all active activations.
	for _, a := range c.w.Active {
		x := &a.X
		x.prof.InclInstrs++
		x.prof.InclCycles += lat
		if a.Frame == fr {
			x.ctx = int(ev.ID)
			x.prof.Exec[int(ev.ID)]++
		} else if x.ctx >= 0 {
			x.prof.CalleeCycles[x.ctx] += lat
		}
	}

	// Candidate-loop dependence tracking.
	switch in.Op {
	case ir.Store:
		for _, a := range c.w.Active {
			if x := &a.X; x.sl.candidate && x.stores != nil {
				x.stores[ev.Addr] = storeGen{ctx: x.ctx, gen: x.storeGen}
			}
		}
	case ir.Load:
		for _, a := range c.w.Active {
			x := &a.X
			if !x.sl.candidate || x.stores == nil {
				continue
			}
			if s, ok := x.stores[ev.Addr]; ok {
				if s.gen == x.storeGen {
					continue // same-iteration dependence: always satisfied
				}
				if s.gen == x.storeGen-1 {
					x.prof.MemDep[[2]int{s.ctx, x.ctx}]++
				}
			}
		}
	case ir.Ret:
		// Propagate the return value into the caller's shadow register
		// file, then close the frame.
		if p := fr.Parent; p != nil && fr.RetDst != ir.NoReg {
			p.X.regs[fr.RetDst] = ev.Val
			p.X.known[fr.RetDst] = true
			for _, a := range c.w.Active {
				if w := a.X.written; w != nil && int(fr.RetDst) < len(w) && a.Frame == p {
					w[fr.RetDst] = true
				}
			}
		}
		c.w.Return(fr)
		return
	}

	// Shadow register file for value comparisons.
	if d := in.Def(); d != ir.NoReg {
		fr.X.regs[d] = ev.Val
		fr.X.known[d] = true
		for _, a := range c.w.Active {
			if w := a.X.written; a.Frame == fr && w != nil && int(d) < len(w) {
				w[d] = true
			}
		}
	}
}

// cleared returns s resized to n zeroed elements, reusing its storage when
// it is large enough.
func cleared[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// openActivations initializes the activations the walker just opened. A
// recycled record keeps its iteration-snapshot buffers and candidate-
// tracking map; snapValid=false and the generation bump make it
// indistinguishable from a fresh one.
func (c *collector) openActivations(opened []*act) {
	base := len(c.w.Active) - len(opened)
	for i, a := range opened {
		x := &a.X
		sl := &c.statics[a.Frame.Fn][a.Loop]
		*x = activation{
			sl:        sl,
			prof:      c.loopProfile(sl),
			ctx:       -1,
			prevSnap:  x.prevSnap,
			prevKnown: x.prevKnown,
			written:   x.written,
			stores:    x.stores,
			storeGen:  x.storeGen,
		}
		if sl.candidate {
			x.written = cleared(x.written, sl.numRegs)
			if x.stores == nil {
				x.stores = map[int64]storeGen{}
			}
			// Advancing two generations makes every residual entry older
			// than "previous iteration", so the reused map needs no clearing.
			x.storeGen += 2
		} else {
			x.written, x.stores = nil, nil
		}
		// Dynamic (inter-procedural) nesting: the enclosing activation is
		// the one below on the global stack — it may live in a caller's
		// function. Figure 6's accumulative coverage needs this to avoid
		// double counting loops reached through calls.
		if x.prof.Parent == nil && base+i > 0 {
			pk := c.w.Active[base+i-1].X.prof.Key
			if pk != x.prof.Key {
				x.prof.Parent = &pk
			}
		}
		x.prof.Entries++
	}
}

func (c *collector) iterationBoundary(fr *frame, a *activation) {
	a.prof.Iterations++
	if !a.sl.candidate {
		return
	}
	// Register change observation.
	regs, known := fr.X.regs, fr.X.known
	n := len(regs)
	if a.snapValid {
		a.prof.RegSamples++
		for r := 0; r < n; r++ {
			if a.prevKnown[r] && known[r] && regs[r] != a.prevSnap[r] {
				a.prof.RegChange[ir.Reg(r)]++
			}
			if a.prevKnown[r] && known[r] {
				vs := a.prof.Values[ir.Reg(r)]
				if vs == nil {
					vs = newValueStats()
					a.prof.Values[ir.Reg(r)] = vs
				}
				vs.observe(regs[r] - a.prevSnap[r])
			}
		}
		for r, w := range a.written {
			if w {
				a.prof.RegWritten[ir.Reg(r)]++
			}
		}
	}
	a.prevSnap = append(a.prevSnap[:0], regs...)
	a.prevKnown = append(a.prevKnown[:0], known...)
	a.snapValid = true
	clear(a.written)
	// Rotate store generations: current becomes previous, entries two or
	// more generations old fall out of scope without any map traffic.
	a.storeGen++
}
