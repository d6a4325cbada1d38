// Package walk follows a sequential instruction trace through its call
// frames and natural loops. For every event it resolves the call frame the
// event belongs to, links a new frame to its caller (and to the caller
// register that receives its return value), and keeps the stack of active
// loop activations in step with block transitions.
//
// The SPT compiler's profiler and the architecture engine's main thread
// both need exactly these facts per event; each attaches its own per-frame
// and per-activation data through the walker's type parameters.
package walk

import (
	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Loop is the static description of one natural loop. Its index in
// Func.Loops is the loop's dense id within the function.
type Loop struct {
	CFG    *cfg.Loop
	Header int
	// StartID is the instruction that begins an iteration: the first of
	// the body entry block of a while-shaped loop (so the final exit test
	// is not an iteration), the first of the header otherwise.
	StartID int32
}

// Func holds one function's loop statics.
type Func struct {
	IR    *ir.Func
	Graph *cfg.Graph // nil when the function has no analyzable CFG
	Loops []Loop
	// chain[b] lists the ids of the loops containing block b, outermost
	// first.
	chain [][]int32
}

// Frame is one dynamic call frame. F is the consumer's per-frame data.
type Frame[F, A any] struct {
	ID int64
	Fn int32
	// Parent is the caller's frame and RetDst the caller register that
	// receives this frame's return value (the Dst of the Call that created
	// it). Parent is nil and RetDst NoReg when the frame was not entered
	// through a Call.
	Parent *Frame[F, A]
	RetDst ir.Reg
	Acts   []*Act[F, A] // loop activations opened by this frame, outermost first
	X      F

	prevB  int32 // block of the previous event, -1 initially
	lastID int32 // last instruction id seen in this frame
}

// Act is one dynamic instance of a loop. A is the consumer's
// per-activation data; it survives recycling, so buffers it holds are
// reused by later activations.
type Act[F, A any] struct {
	Loop  int32 // dense loop id within Frame.Fn
	Frame *Frame[F, A]
	X     A
}

// Walker tracks frames and loop activations over one trace. Frame and
// activation records are pooled, so a steady-state walk allocates nothing.
type Walker[F, A any] struct {
	lp    *interp.Program
	Funcs []Func
	// Active is the global activation stack across all frames, outermost
	// first.
	Active []*Act[F, A]

	frames map[int64]*Frame[F, A]
	stack  []*Frame[F, A] // frames with events seen, innermost last
	pushed int            // activations opened by the last Step

	framePool []*Frame[F, A]
	actPool   []*Act[F, A]

	// One-entry lookup memo: consecutive events overwhelmingly share a
	// frame, so most lookups skip the frames map.
	lastFrame int64
	lastFr    *Frame[F, A]
}

// New returns a walker over traces of lp.
func New[F, A any](lp *interp.Program) *Walker[F, A] {
	w := &Walker[F, A]{lp: lp, Funcs: make([]Func, len(lp.IR.Funcs)), frames: map[int64]*Frame[F, A]{}}
	for fi, f := range lp.IR.Funcs {
		fs := Func{IR: f, chain: make([][]int32, len(f.Blocks))}
		g, err := cfg.Build(f)
		if err != nil {
			// Unanalyzable function (never produced by validated programs):
			// its events belong to no loop.
			w.Funcs[fi] = fs
			continue
		}
		fs.Graph = g
		forest := cfg.FindLoops(g)
		id := make(map[*cfg.Loop]int32, len(forest.Loops))
		for i, l := range forest.Loops {
			id[l] = int32(i)
			start := l.Header
			if term := f.Blocks[l.Header].Term(); term.Op == ir.Br {
				t1, t2 := f.BlockIndex(term.Target), f.BlockIndex(term.Target2)
				switch {
				case l.Contains(t1) && !l.Contains(t2):
					start = t1
				case l.Contains(t2) && !l.Contains(t1):
					start = t2
				}
			}
			fs.Loops = append(fs.Loops, Loop{CFG: l, Header: l.Header, StartID: int32(f.Blocks[start].Instrs[0].ID)})
		}
		for b := range f.Blocks {
			var chain []int32
			for l := forest.InnermostAt[b]; l != nil; l = l.Parent {
				chain = append(chain, id[l])
			}
			for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
				chain[i], chain[j] = chain[j], chain[i]
			}
			fs.chain[b] = chain
		}
		w.Funcs[fi] = fs
	}
	return w
}

// Step advances the walk to one event of function fn, frame frame and
// instruction id, and returns the event's frame. opened reports that the
// event is the frame's first: its X is stale and the consumer resets it.
// Activations Step opened are listed by Opened; activations it closed are
// already recycled.
func (w *Walker[F, A]) Step(fn int32, frame int64, id int32) (fr *Frame[F, A], opened bool) {
	if w.lastFr != nil && w.lastFrame == frame {
		fr = w.lastFr
	} else if fr = w.frames[frame]; fr == nil {
		fr = w.open(fn, frame)
		opened = true
	}
	w.lastFrame, w.lastFr = frame, fr
	fr.lastID = id
	w.pushed = 0
	if blk := w.lp.BlockOf(fn, id); blk != fr.prevB {
		w.sync(fr, blk)
		fr.prevB = blk
	}
	return fr, opened
}

// open creates the record of a frame seen for the first time and links it
// to the innermost frame if that frame's last instruction is a Call.
func (w *Walker[F, A]) open(fn int32, frame int64) *Frame[F, A] {
	var fr *Frame[F, A]
	if n := len(w.framePool); n > 0 {
		fr = w.framePool[n-1]
		w.framePool = w.framePool[:n-1]
	} else {
		fr = &Frame[F, A]{}
	}
	fr.ID, fr.Fn, fr.prevB = frame, fn, -1
	fr.Parent, fr.RetDst = nil, ir.NoReg
	fr.Acts = fr.Acts[:0]
	if n := len(w.stack); n > 0 {
		parent := w.stack[n-1]
		if pin := w.lp.InstrAt(parent.Fn, parent.lastID); pin.Op == ir.Call {
			fr.Parent, fr.RetDst = parent, pin.Dst
		}
	}
	w.frames[frame] = fr
	w.stack = append(w.stack, fr)
	return fr
}

// sync closes the frame's activations whose loop does not contain block
// blk and opens activations for the loops around blk it lacks.
func (w *Walker[F, A]) sync(fr *Frame[F, A], blk int32) {
	chain := w.Funcs[fr.Fn].chain[blk]
	keep := 0
	for keep < len(fr.Acts) && keep < len(chain) && fr.Acts[keep].Loop == chain[keep] {
		keep++
	}
	for len(fr.Acts) > keep {
		w.pop(fr)
	}
	for _, l := range chain[len(fr.Acts):] {
		var a *Act[F, A]
		if n := len(w.actPool); n > 0 {
			a = w.actPool[n-1]
			w.actPool = w.actPool[:n-1]
		} else {
			a = &Act[F, A]{}
		}
		a.Loop, a.Frame = l, fr
		fr.Acts = append(fr.Acts, a)
		w.Active = append(w.Active, a)
		w.pushed++
	}
}

// Opened returns the activations opened by the last Step, outermost first:
// they are the top of Active.
func (w *Walker[F, A]) Opened() []*Act[F, A] { return w.Active[len(w.Active)-w.pushed:] }

// Lookup returns the record of a frame already seen, or nil.
func (w *Walker[F, A]) Lookup(frame int64) *Frame[F, A] {
	if w.lastFr != nil && w.lastFrame == frame {
		return w.lastFr
	}
	return w.frames[frame]
}

// Return closes fr after its Ret event: its activations end and the
// record is recycled.
func (w *Walker[F, A]) Return(fr *Frame[F, A]) {
	for len(fr.Acts) > 0 {
		w.pop(fr)
	}
	for i := len(w.stack) - 1; i >= 0; i-- {
		if w.stack[i] == fr {
			w.stack = append(w.stack[:i], w.stack[i+1:]...)
			break
		}
	}
	delete(w.frames, fr.ID)
	if w.lastFr == fr {
		w.lastFr = nil
	}
	w.framePool = append(w.framePool, fr)
}

// pop closes the frame's innermost activation. It is the global top unless
// callees left activations behind (frames whose Ret never arrived), so the
// global stack is searched from the top.
func (w *Walker[F, A]) pop(fr *Frame[F, A]) {
	a := fr.Acts[len(fr.Acts)-1]
	fr.Acts = fr.Acts[:len(fr.Acts)-1]
	for i := len(w.Active) - 1; i >= 0; i-- {
		if w.Active[i] == a {
			w.Active = append(w.Active[:i], w.Active[i+1:]...)
			break
		}
	}
	w.actPool = append(w.actPool, a)
}
