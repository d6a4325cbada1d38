package trace

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// sumHandler folds the stream into a checksum plus a count, copying nothing:
// the natural shape of a broadcast consumer.
type sumHandler struct {
	sum    int64
	count  int64
	quitAt int64 // Quit reports true once count >= quitAt (0: never)
}

func (s *sumHandler) Event(ev *Event) {
	s.count++
	s.sum = s.sum*31 + ev.Val + int64(ev.ID) + int64(len(ev.Snapshot))
	if ev.Taken {
		s.sum ^= ev.Addr
	}
}

func (s *sumHandler) Quit() bool { return s.quitAt > 0 && s.count >= s.quitAt }

// TestBroadcastMatchesReplay is the broadcast correctness contract: every
// handler of a MultiReplayer pass observes exactly the event prefix the
// producer emitted at capture time, limits included. The reference is the
// live stream the Recorder tees while capturing, so the check never
// compares the replay path with itself.
func TestBroadcastMatchesReplay(t *testing.T) {
	evs := synthEvents(2*chunkEvents+777, 43)
	n := int64(len(evs))
	limits := []int64{0, 1, broadcastBlock, broadcastBlock + 1, chunkEvents + 5, n + 100}
	want := make([]sumHandler, len(limits))
	var seen int64
	r := NewRecorder(HandlerFunc(func(ev *Event) {
		for i, lim := range limits {
			if lim <= 0 || seen < lim {
				want[i].Event(ev)
			}
		}
		seen++
	}))
	for i := range evs {
		r.Event(&evs[i])
	}
	rec := r.Finalize(n)
	got := make([]sumHandler, len(limits))
	hs := make([]Handler, len(limits))
	for i := range got {
		hs[i] = &got[i]
	}
	var mr MultiReplayer
	if err := mr.Replay(context.Background(), rec, hs, limits); err != nil {
		t.Fatalf("broadcast Replay: %v", err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("limit %d: broadcast %+v, captured stream %+v", limits[i], got[i], want[i])
		}
	}
}

// TestBroadcastSnapshotsMatch drives one handler that copies everything and
// diffs the full event stream against the events that were recorded, so
// snapshot side-table decoding is compared byte for byte, not just
// checksummed.
func TestBroadcastSnapshotsMatch(t *testing.T) {
	want := synthEvents(chunkEvents+321, 7)
	rec := record(want)
	var got []Event
	copying := HandlerFunc(func(ev *Event) {
		cp := *ev
		if ev.Snapshot != nil {
			cp.Snapshot = append([]int64(nil), ev.Snapshot...)
		}
		got = append(got, cp)
	})
	var other sumHandler
	var mr MultiReplayer
	if err := mr.Replay(context.Background(), rec, []Handler{copying, &other}, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("broadcast stream diverges from the recorded events")
	}
	if other.count != rec.Len() {
		t.Fatalf("sibling saw %d events; want %d", other.count, rec.Len())
	}
}

func TestBroadcastLimitsMismatch(t *testing.T) {
	rec := record(synthEvents(100, 0))
	var h sumHandler
	var mr MultiReplayer
	err := mr.Replay(context.Background(), rec, []Handler{&h, &h}, []int64{1})
	if err == nil || !strings.Contains(err.Error(), "limits mismatch") {
		t.Fatalf("err = %v; want limits mismatch", err)
	}
	if h.count != 0 {
		t.Fatalf("handler fed %d events before validation; want 0", h.count)
	}
}

func TestBroadcastNilAndEmpty(t *testing.T) {
	var mr MultiReplayer
	if err := mr.Replay(context.Background(), nil, []Handler{HandlerFunc(func(*Event) {})}, nil); err != nil {
		t.Fatalf("nil recording: %v", err)
	}
	rec := record(synthEvents(50, 0))
	if err := mr.Replay(context.Background(), rec, nil, nil); err != nil {
		t.Fatalf("no handlers: %v", err)
	}
	// nil handler slots and zero limits are skipped, not dereferenced.
	var h sumHandler
	if err := mr.Replay(context.Background(), rec, []Handler{nil, &h}, []int64{10, 0}); err != nil {
		t.Fatal(err)
	}
	if h.count != rec.Len() {
		t.Fatalf("live handler saw %d events; want %d", h.count, rec.Len())
	}
}

// TestBroadcastQuitSheds checks the cooperative-shedding contract: a handler
// whose Quit turns true stops receiving on the next block boundary while its
// siblings run to completion, and a pass whose handlers all quit ends early.
func TestBroadcastQuitSheds(t *testing.T) {
	rec := record(synthEvents(3*broadcastBlock+100, 0))
	quitter := &sumHandler{quitAt: 10}
	full := &sumHandler{}
	var mr MultiReplayer
	if err := mr.Replay(context.Background(), rec, []Handler{quitter, full}, nil); err != nil {
		t.Fatal(err)
	}
	// The quitter is polled between blocks: it consumes the rest of its
	// current block after quitting, and nothing beyond it.
	if quitter.count != broadcastBlock {
		t.Errorf("quit handler saw %d events; want exactly one block (%d)", quitter.count, broadcastBlock)
	}
	if full.count != rec.Len() {
		t.Errorf("sibling saw %d events; want %d", full.count, rec.Len())
	}

	solo := &sumHandler{quitAt: 1}
	if err := mr.Replay(context.Background(), rec, []Handler{solo}, nil); err != nil {
		t.Fatal(err)
	}
	if solo.count != broadcastBlock {
		t.Errorf("solo quitter saw %d events; want the pass to end after one block", solo.count)
	}
}

func TestBroadcastCtxCancel(t *testing.T) {
	rec := record(synthEvents(4*broadcastBlock, 0))
	ctx, cancel := context.WithCancel(context.Background())
	h := &sumHandler{}
	stop := HandlerFunc(func(ev *Event) {
		h.Event(ev)
		if h.count == 1 {
			cancel()
		}
	})
	var mr MultiReplayer
	err := mr.Replay(ctx, rec, []Handler{stop}, nil)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v; want broadcast interrupted", err)
	}
	if h.count != broadcastBlock {
		t.Fatalf("handler saw %d events after cancel; want one block (%d)", h.count, broadcastBlock)
	}
}

// TestBroadcastSteadyStateAllocs: once a MultiReplayer has warmed its block
// and sink scratch, fanning a recording out to several handlers allocates
// nothing — the decode cost is O(block + handlers) scratch, never
// O(events).
func TestBroadcastSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	rec := record(synthEvents(chunkEvents+999, 61))
	var sink int64
	hs := []Handler{
		HandlerFunc(func(ev *Event) { sink += ev.Val }),
		HandlerFunc(func(ev *Event) { sink ^= int64(ev.ID) }),
		HandlerFunc(func(ev *Event) { sink += int64(len(ev.Snapshot)) }),
	}
	limits := []int64{0, rec.Len() / 2, rec.Len() - 3}
	var mr MultiReplayer
	ctx := context.Background()
	if err := mr.Replay(ctx, rec, hs, limits); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := mr.Replay(ctx, rec, hs, limits); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state broadcast allocates %.1f times per pass; want 0", allocs)
	}
	_ = sink
}
