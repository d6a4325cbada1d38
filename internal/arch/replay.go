package arch

import (
	"context"
	"fmt"

	"repro/internal/interp"
	"repro/internal/trace"
)

// RecordTrace interprets lp once and captures its complete architectural
// trace as a Recording. stepLimit > 0 bounds the run exactly like
// Config.StepLimit does for a fused simulation: exceeding it aborts the
// capture with interp.ErrStepLimit and nothing is retained. The returned
// recording replays bit-identically into any machine configuration for the
// same program (RunRecorded).
func RecordTrace(ctx context.Context, lp *interp.Program, stepLimit int64) (*trace.Recording, error) {
	im := interp.New(lp)
	if stepLimit > 0 {
		im.SetStepLimit(stepLimit)
	}
	im.SetContext(ctx)
	rec := trace.NewRecorder(nil)
	im.SetHandler(rec)
	res, err := im.Run()
	if err != nil {
		rec.Abort()
		return nil, err
	}
	return rec.Finalize(res.Steps), nil
}

// RunRecorded is RunContext fed from a finished recording instead of a live
// interpreter. See RunRecordedContext.
func (m *Machine) RunRecorded(rec *trace.Recording) (*RunStats, error) {
	return m.RunRecordedContext(context.Background(), rec)
}

// RunRecordedContext simulates a previously captured trace: it is a
// one-engine RunRecordedMulti bank. The engine is fed through exactly the
// code path a live interpreter uses (the same trace.Handler, including any
// middleware installed with SetTraceMiddleware — recordings hold the raw
// pre-middleware stream), so a replayed run is bit-identical to the fused
// run it stands in for.
//
// Config.StepLimit applies to the replay just as it does to a live run:
// feeding stops after StepLimit events and interp.ErrStepLimit is returned.
// A nil, unfinalized or truncated recording fails with ErrCorruptTrace, as
// does any event whose coordinates do not resolve in the loaded program.
// When both the step and cycle budgets would be exceeded in the same run,
// the surfaced budget error may differ from the fused run's; both modes
// return nil stats and a budget-class error.
func (m *Machine) RunRecordedContext(ctx context.Context, rec *trace.Recording) (*RunStats, error) {
	stats, errs := replayBank(ctx, m.lp, rec, []Config{m.cfg}, m.mw)
	return stats[0], errs[0]
}

// RunRecordedMulti simulates one captured trace under several machine
// configurations in a single broadcast decode pass: N engines are
// constructed up front and every event is decoded once and fanned out to
// all of them (trace.MultiReplayer). Each engine's result is bit-identical
// to a fused Run of the same configuration — engines share nothing
// mutable, so fan-out order cannot influence per-engine state.
//
// Failure is isolated per variant: an engine that exhausts its cycle budget,
// rejects a corrupt event, or hits its per-variant StepLimit gets its own
// error while its siblings finish normally (a failed engine stops consuming
// and is shed from the pass on the broadcast's polling cadence). An invalid
// configuration or a torn recording likewise fails only the affected
// entries. The returned slices are indexed like cfgs; stats[i] is nil
// exactly when errs[i] is non-nil.
func RunRecordedMulti(ctx context.Context, lp *interp.Program, rec *trace.Recording, cfgs []Config) ([]*RunStats, []error) {
	return replayBank(ctx, lp, rec, cfgs, nil)
}

// replayBank is the one replay driver: it feeds rec to one engine per
// configuration, each behind mw when mw is non-nil.
func replayBank(ctx context.Context, lp *interp.Program, rec *trace.Recording, cfgs []Config, mw func(trace.Handler) trace.Handler) ([]*RunStats, []error) {
	stats := make([]*RunStats, len(cfgs))
	errs := make([]error, len(cfgs))
	if len(cfgs) == 0 {
		return stats, errs
	}
	var corrupt error
	if !rec.Complete() || rec.Len() != rec.Steps() {
		corrupt = fmt.Errorf("%w: recording incomplete (%d events for %d steps)",
			ErrCorruptTrace, rec.Len(), rec.Steps())
	}
	engines := make([]*engine, len(cfgs))
	hs := make([]trace.Handler, 0, len(cfgs))
	limits := make([]int64, 0, len(cfgs))
	fed := make([]int, 0, len(cfgs)) // bank position -> cfgs index
	limited := make([]bool, len(cfgs))
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			errs[i] = err
			continue
		}
		if corrupt != nil {
			errs[i] = corrupt
			continue
		}
		// No cancel hook: in a bank, one engine's failure must not abort the
		// siblings' pass. The broadcast replayer sheds the dead engine via
		// Quit instead (middleware hides Quit, so an engine behind it rides
		// to the end), and Event is a no-op once failure is set.
		e := newEngine(lp, cfg)
		engines[i] = e
		feedN := rec.Len()
		if cfg.StepLimit > 0 && feedN > cfg.StepLimit {
			feedN = cfg.StepLimit
			limited[i] = true
		}
		var h trace.Handler = e
		if mw != nil {
			h = mw(e)
		}
		hs = append(hs, h)
		limits = append(limits, feedN)
		fed = append(fed, i)
	}
	if len(hs) == 0 {
		return stats, errs
	}
	var mr trace.MultiReplayer
	rerr := mr.Replay(ctx, rec, hs, limits)
	for _, i := range fed {
		stats[i], errs[i] = engines[i].result(rerr, limited[i], rec.Steps())
		engines[i].releaseBuf()
	}
	return stats, errs
}
