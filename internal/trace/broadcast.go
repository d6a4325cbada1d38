package trace

import (
	"context"
	"fmt"
)

// This file implements replay: one decode pass over a Recording drives any
// number of consumers at once. The columnar decode, the chunk walk and the
// context polling are paid once per pass, not once per consumer — each
// event is materialized a single time and fanned out to every still-live
// handler. A single consumer is simply a pass with one handler.

// broadcastBlock is the burst size of the fan-out: events are decoded into
// a block of this many materialized Events, and each live handler consumes
// the whole block before the next handler starts. Bursting keeps one
// engine's working set hot for hundreds of events at a time — a strict
// per-event round-robin cycles every engine's state through the cache at
// each step, which costs more than the decode it saves. 512 events keep the
// block itself comfortably inside L2.
const broadcastBlock = 512

// Quitter is optionally implemented by broadcast handlers that can lose
// interest mid-stream (an engine that exhausted its cycle budget, a probe
// that found what it was looking for). MultiReplayer polls Quit between
// blocks (every 512 events) and drops handlers that report true; when none
// remain the pass ends early. Within a block a quit handler keeps receiving
// events, so Quit must be safe to call — and Event safe to no-op — after
// the handler has given up.
type Quitter interface {
	Quit() bool
}

// bsink is one broadcast consumer: its handler, the number of events still
// owed to it, and its optional quit probe.
type bsink struct {
	h     Handler
	left  int64 // events remaining; always > 0 while the sink is live
	quit  Quitter
	index int // position in the caller's handler slice (for diagnostics)
}

// MultiReplayer fans one recording out to several handlers in a single
// decode pass. The zero value is ready; reusing one MultiReplayer across
// calls keeps the steady state allocation-free (the decode block and the
// sink scratch live in the replayer, so per-pass cost is O(handlers + block),
// never O(events)).
type MultiReplayer struct {
	blk   []Event
	sinks []bsink
}

// Replay feeds rec to every handler in hs in one pass. limits[i] bounds the
// events delivered to hs[i] (<= 0: the whole recording); limits may be nil
// (no handler is bounded) but must otherwise match hs in length. Each
// handler observes exactly the ordered event prefix the producer emitted
// when the recording was captured: events are decoded once into a block and
// each handler consumes the block in a burst, so *within* a block handlers
// run one after another rather than interleaved per event (they are
// independent, so the interleaving is unobservable). Emitted Events are
// reused between blocks and their Snapshot aliases the recording's storage,
// so handlers must copy anything they keep, exactly as with a live
// producer. Events recorded without a snapshot replay with a nil Snapshot;
// zero-length snapshots may also replay as nil (consumers treat both
// alike).
//
// Handlers implementing Quitter are polled between blocks (every 512
// events) and dropped once they report true; the pass returns early when no
// live handler remains. ctx is polled on the same cadence. A nil recording
// or an empty handler set replays nothing.
func (mr *MultiReplayer) Replay(ctx context.Context, rec *Recording, hs []Handler, limits []int64) error {
	if rec == nil || len(hs) == 0 {
		return nil
	}
	if limits != nil && len(limits) != len(hs) {
		return fmt.Errorf("trace: broadcast limits mismatch: %d handlers, %d limits", len(hs), len(limits))
	}
	live := mr.sinks[:0]
	for i, h := range hs {
		if h == nil {
			continue
		}
		lim := rec.n
		if limits != nil && limits[i] > 0 && limits[i] < lim {
			lim = limits[i]
		}
		if lim <= 0 {
			continue
		}
		s := bsink{h: h, left: lim, index: i}
		s.quit, _ = h.(Quitter)
		live = append(live, s)
	}
	mr.sinks = live // keep the scratch (and its capacity) for the next pass
	if mr.blk == nil {
		mr.blk = make([]Event, broadcastBlock)
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	var fed int64 // events decoded (any handler's furthest position)
	for _, c := range rec.chunks {
		if len(live) == 0 {
			break
		}
		n := int64(c.n)
		si := 0
		for off := int64(0); off < n && len(live) > 0; {
			// Decode the next block once.
			bn := n - off
			if bn > broadcastBlock {
				bn = broadcastBlock
			}
			blk := mr.blk[:bn]
			for i := range blk {
				j := off + int64(i)
				ev := &blk[i]
				ev.Func = c.funcs[j]
				ev.ID = c.ids[j]
				ev.Frame = c.frames[j]
				ev.Addr = c.addrs[j]
				ev.Val = c.vals[j]
				ev.Taken = c.taken[j]
				ev.Snapshot = nil
				if si < len(c.snapAt) && c.snapAt[si] == int32(j) {
					start, end := c.snapRange(si)
					ev.Snapshot = c.snapData[start:end:end]
					si++
				}
			}
			// Fan out in bursts: each handler walks the whole block before
			// the next handler touches it.
			for k := 0; k < len(live); {
				s := &live[k]
				take := blk
				if s.left < bn {
					take = blk[:s.left]
				}
				for i := range take {
					s.h.Event(&take[i])
				}
				s.left -= int64(len(take))
				if s.left == 0 {
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					k++
				}
			}
			off += bn
			fed += bn
			// Poll cancellation and shed handlers that lost interest.
			if done != nil {
				select {
				case <-done:
					return fmt.Errorf("trace: broadcast interrupted after %d events: %w", fed, ctx.Err())
				default:
				}
			}
			for k := 0; k < len(live); {
				if live[k].quit != nil && live[k].quit.Quit() {
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					k++
				}
			}
		}
	}
	// Drop handler references so a retained MultiReplayer does not pin
	// finished engines — the scratch backing array still holds sinks that
	// were shed during the pass, and block events may alias snapshots.
	full := mr.sinks[:cap(mr.sinks)]
	for i := range full {
		full[i] = bsink{}
	}
	mr.sinks = full[:0]
	for i := range mr.blk {
		mr.blk[i].Snapshot = nil
	}
	return nil
}
