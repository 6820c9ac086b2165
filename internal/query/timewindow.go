package query

import (
	"context"

	"repro/internal/geo"
	"repro/internal/traj"
)

// TimeWindow restricts a query to trajectories observed within [Start, End]
// (Unix seconds, inclusive). A zero Start or End leaves that side unbounded.
// The XZ* index is purely spatial (as in the paper), so the window applies
// as part of the pushed-down local filter: rows whose timestamp range misses
// the window never leave the region servers.
type TimeWindow struct {
	Start, End int64
}

// Unbounded reports whether the window constrains nothing.
func (w TimeWindow) Unbounded() bool { return w.Start == 0 && w.End == 0 }

// admits reports whether a trajectory with the given timestamp range, as
// TimeBounds returns it, overlaps the window. Untimed trajectories always
// qualify: absence of timestamps must not silently hide data.
func (w TimeWindow) admits(min, max int64, timed bool) bool {
	if w.Unbounded() || !timed {
		return true
	}
	if w.Start != 0 && max < w.Start {
		return false
	}
	if w.End != 0 && min > w.End {
		return false
	}
	return true
}

// ThresholdWindow is Threshold restricted to trajectories overlapping the
// time window.
func (e *Engine) ThresholdWindow(q *traj.Trajectory, eps float64, w TimeWindow) ([]Result, *Stats, error) {
	return e.threshold(context.Background(), q, eps, w)
}

// ThresholdWindowContext is ThresholdWindow under a context: cancellation
// aborts the storage scans between rows and surfaces ctx's error. The server
// layer maps per-request deadlines onto queries through these variants.
func (e *Engine) ThresholdWindowContext(ctx context.Context, q *traj.Trajectory, eps float64, w TimeWindow) ([]Result, *Stats, error) {
	return e.threshold(ctx, q, eps, w)
}

// ThresholdWindowFunc is ThresholdFunc restricted to the time window: each
// match streams to fn as refinement produces it, under ctx.
func (e *Engine) ThresholdWindowFunc(ctx context.Context, q *traj.Trajectory, eps float64, w TimeWindow, fn func(Result) error) (*Stats, error) {
	_, stats, err := e.thresholdImpl(ctx, q, eps, w, fn)
	return stats, err
}

// TopKWindow is TopK restricted to trajectories overlapping the time window:
// the k nearest among those observed in [Start, End].
func (e *Engine) TopKWindow(q *traj.Trajectory, k int, w TimeWindow) ([]Result, *Stats, error) {
	return e.topK(context.Background(), q, k, w)
}

// TopKWindowContext is TopKWindow under a context: cancellation aborts the
// storage scans between rows and surfaces ctx's error.
func (e *Engine) TopKWindowContext(ctx context.Context, q *traj.Trajectory, k int, w TimeWindow) ([]Result, *Stats, error) {
	return e.topK(ctx, q, k, w)
}

// RangeWindow is Range restricted to trajectories overlapping the time
// window.
func (e *Engine) RangeWindow(window geo.Rect, w TimeWindow) ([]Result, *Stats, error) {
	return e.rangeQuery(context.Background(), window, w)
}

// RangeWindowContext is RangeWindow under a context: cancellation aborts the
// storage scans between rows and surfaces ctx's error.
func (e *Engine) RangeWindowContext(ctx context.Context, window geo.Rect, w TimeWindow) ([]Result, *Stats, error) {
	return e.rangeQuery(ctx, window, w)
}

// RangeWindowFunc is RangeFunc restricted to the time window: each match
// streams to fn as the scans produce it, under ctx.
func (e *Engine) RangeWindowFunc(ctx context.Context, window geo.Rect, w TimeWindow, fn func(Result) error) (*Stats, error) {
	_, stats, err := e.rangeImpl(ctx, window, w, fn)
	return stats, err
}
