package walk

import (
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/trace"
)

// recursive mixes recursion, calls from inside nested loops and a loop in
// a callee, so activations of one loop stack up across frames.
const recursive = `
var a[16];

func fib(n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}

func sum(k) {
    var s = 0;
    var j;
    for (j = 0; j < k; j = j + 1) { s = s + j; }
    return s;
}

func main() {
    var i;
    var j;
    var t = 0;
    for (i = 0; i < 6; i = i + 1) {
        for (j = 0; j < i; j = j + 1) {
            t = t + sum(j);
            a[j] = t;
        }
        t = t + fib(i);
    }
    while (t > 100) { t = t - fib(4); }
    return t;
}
`

// siblings exits one loop straight into the header of the next, so a
// block transition swaps activations at equal depth.
const siblings = `
.entry main

func main(params=0, regs=5):
entry:
	movi r0, 0
	movi r1, 3
	movi r2, 6
	jmp a.head
a.head:
	cmplt r3, r0, r1
	br r3, a.body, b.head
a.body:
	addi r0, r0, 1
	jmp a.head
b.head:
	cmplt r4, r0, r2
	br r4, b.body, done
b.body:
	addi r0, r0, 1
	jmp b.head
done:
	ret r0
`

func record(t *testing.T, p *ir.Program) (*interp.Program, []trace.Event) {
	t.Helper()
	lp, err := interp.Load(p)
	if err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	m := interp.New(lp)
	m.SetHandler(trace.HandlerFunc(func(ev *trace.Event) { evs = append(evs, *ev) }))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return lp, evs
}

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func programs(t *testing.T) map[string]*ir.Program {
	t.Helper()
	qsort, err := os.ReadFile("../lang/testdata/qsort.mc")
	if err != nil {
		t.Fatal(err)
	}
	sib, err := ir.Parse(siblings)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*ir.Program{
		"qsort":     compile(t, string(qsort)),
		"recursive": compile(t, recursive),
		"siblings":  sib,
	}
}

// activation names one loop activation independently of walker records.
type activation struct {
	frame  int64
	fn     int32
	header int
}

// TestWalkMatchesReference checks the walker's frame linkage and per-event
// activation stack against a reference computed naively from the whole
// trace: a new frame's caller is the frame of the immediately preceding
// event when that event is a Call, and the active loops are, for every
// live frame from the outermost, the loops containing the block of that
// frame's latest event.
func TestWalkMatchesReference(t *testing.T) {
	for name, p := range programs(t) {
		t.Run(name, func(t *testing.T) {
			lp, evs := record(t, p)
			forests := make([]*cfg.Forest, lp.NumFuncs())
			for fi, f := range lp.IR.Funcs {
				g, err := cfg.Build(f)
				if err != nil {
					t.Fatal(err)
				}
				forests[fi] = cfg.FindLoops(g)
			}
			// loopsAt lists the loops of fn containing block b, outermost first.
			loopsAt := func(fn int32, b int32) []*cfg.Loop {
				var out []*cfg.Loop
				for _, l := range forests[fn].Loops {
					if l.Contains(int(b)) {
						out = append(out, l)
					}
				}
				sort.Slice(out, func(i, j int) bool { return out[i].Depth < out[j].Depth })
				return out
			}

			w := New[struct{}, struct{}](lp)
			var live []int64 // reference call stack, outermost first
			fnOf := map[int64]int32{}
			blockOf := map[int64]int32{}
			calls, nested, maxDepth := 0, 0, 0
			for i := range evs {
				ev := &evs[i]
				blk := lp.BlockOf(ev.Func, ev.ID)
				prev, seen := blockOf[ev.Frame]
				fr, opened := w.Step(ev.Func, ev.Frame, ev.ID)

				if opened == seen {
					t.Fatalf("event %d: opened = %v for a frame seen before = %v", i, opened, seen)
				}
				if !seen {
					wantParent, wantDst := int64(-1), ir.NoReg
					if i > 0 {
						if pin := lp.InstrAt(evs[i-1].Func, evs[i-1].ID); pin.Op == ir.Call {
							wantParent, wantDst = evs[i-1].Frame, pin.Dst
							calls++
						}
					}
					gotParent := int64(-1)
					if fr.Parent != nil {
						gotParent = fr.Parent.ID
					}
					if gotParent != wantParent || fr.RetDst != wantDst {
						t.Fatalf("event %d: frame %d linked to (%d, r%d), want (%d, r%d)",
							i, ev.Frame, gotParent, fr.RetDst, wantParent, wantDst)
					}
					live = append(live, ev.Frame)
					fnOf[ev.Frame] = ev.Func
				}
				if fr.ID != ev.Frame || fr.Fn != ev.Func || fr.lastID != ev.ID {
					t.Fatalf("event %d: frame record (%d, %d, %d)", i, fr.ID, fr.Fn, fr.lastID)
				}
				blockOf[ev.Frame] = blk

				var want []activation
				for _, f := range live {
					for _, l := range loopsAt(fnOf[f], blockOf[f]) {
						want = append(want, activation{f, fnOf[f], l.Header})
					}
				}
				got := make([]activation, len(w.Active))
				for k, a := range w.Active {
					got[k] = activation{a.Frame.ID, a.Frame.Fn, w.Funcs[a.Frame.Fn].Loops[a.Loop].Header}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("event %d: active %v, want %v", i, got, want)
				}
				top := w.Active[len(w.Active)-len(fr.Acts):]
				for k, a := range fr.Acts {
					if top[k] != a {
						t.Fatalf("event %d: frame activations are not the top of the global stack", i)
					}
				}

				// Opened activations are the loops around blk the frame's
				// previous block was not in.
				var wantOpened []int
				for _, l := range loopsAt(ev.Func, blk) {
					if !seen || !l.Contains(int(prev)) {
						wantOpened = append(wantOpened, l.Header)
					}
				}
				var gotOpened []int
				for _, a := range w.Opened() {
					gotOpened = append(gotOpened, w.Funcs[a.Frame.Fn].Loops[a.Loop].Header)
				}
				if fmt.Sprint(gotOpened) != fmt.Sprint(wantOpened) {
					t.Fatalf("event %d: opened %v, want %v", i, gotOpened, wantOpened)
				}

				if len(want) > 1 {
					nested++
				}
				if len(live) > maxDepth {
					maxDepth = len(live)
				}
				if lp.InstrAt(ev.Func, ev.ID).Op == ir.Ret {
					w.Return(fr)
					live = live[:len(live)-1]
					delete(blockOf, ev.Frame)
				}
			}
			if len(w.Active) != 0 || len(live) != 0 {
				t.Fatalf("trace ended with %d activations and %d live frames", len(w.Active), len(live))
			}
			if name == "recursive" && (calls == 0 || nested == 0 || maxDepth < 4) {
				t.Fatalf("program exercises too little: %d calls, %d nested events, depth %d", calls, nested, maxDepth)
			}
		})
	}
}

// TestWalkSteadyStateAllocs locks in that a walk with warm pools allocates
// nothing.
func TestWalkSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	lp, evs := record(t, compile(t, recursive))
	w := New[struct{}, struct{}](lp)
	walkAll := func() {
		for i := range evs {
			ev := &evs[i]
			fr, _ := w.Step(ev.Func, ev.Frame, ev.ID)
			if lp.InstrAt(ev.Func, ev.ID).Op == ir.Ret {
				w.Return(fr)
			}
		}
	}
	walkAll() // warm pass: pools and the frame map reach steady capacity
	if allocs := testing.AllocsPerRun(3, walkAll); allocs > 0 {
		t.Fatalf("steady-state walk allocates %.1f times per trace; want 0", allocs)
	}
}
