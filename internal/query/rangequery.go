package query

import (
	"context"
	"time"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/kv"
	"repro/internal/traj"
)

// Range runs a spatial range query: every stored trajectory with at least
// one point inside window. The XZ* cover prunes index spaces whose quads all
// miss the window; a pushed-down filter checks the DP feature boxes and then
// the exact points before a row ships.
func (e *Engine) Range(window geo.Rect) ([]Result, *Stats, error) {
	return e.rangeQuery(context.Background(), window, TimeWindow{})
}

// RangeContext is Range under a context: cancellation aborts the storage
// scans between rows and surfaces ctx's error.
func (e *Engine) RangeContext(ctx context.Context, window geo.Rect) ([]Result, *Stats, error) {
	return e.rangeQuery(ctx, window, TimeWindow{})
}

// RangeFunc streams each match to fn as the scans produce it instead of
// collecting a result slice: memory stays bounded by the pipeline depth no
// matter how many trajectories intersect the window. Delivery order follows
// refinement completion, not key order. A non-nil error from fn aborts the
// query and is returned as-is.
func (e *Engine) RangeFunc(ctx context.Context, window geo.Rect, fn func(Result) error) (*Stats, error) {
	_, stats, err := e.rangeImpl(ctx, window, TimeWindow{}, fn)
	return stats, err
}

func (e *Engine) rangeQuery(ctx context.Context, window geo.Rect, w TimeWindow) ([]Result, *Stats, error) {
	return e.rangeImpl(ctx, window, w, nil)
}

func (e *Engine) rangeImpl(ctx context.Context, window geo.Rect, w TimeWindow, sink func(Result) error) ([]Result, *Stats, error) {
	stats := &Stats{}

	// One snapshot per query (see thresholdImpl).
	snap, err := e.store.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = snap.Close() }()

	t0 := time.Now()
	ranges, _ := e.store.Index().RangeCover(window, e.budget)
	stats.PruneTime = time.Since(t0)
	stats.Ranges = len(ranges)
	if len(ranges) == 0 {
		return nil, stats, nil
	}

	filter := pushDown(w, rangeFilter(window))
	scan := func(sctx context.Context, emit func([]kv.Entry) error) (*cluster.ScanResult, error) {
		return snap.ScanRangesStream(sctx, ranges, filter, 0, e.streamOptions(false), emit)
	}

	// Range results carry no distance; refinement here is the client-side
	// decode of every shipped row, which still profits from the pool on
	// large windows.
	var out []keyedResult
	nres := 0
	err = e.runPipeline(ctx, stats, scan,
		func(rec *traj.Record) refineOutcome {
			return refineOutcome{rec: rec, keep: true}
		},
		func(o refineOutcome) error {
			r := Result{ID: o.rec.ID, Points: o.rec.Points}
			nres++
			if sink != nil {
				return sink(r)
			}
			out = append(out, keyedResult{key: o.key, res: r})
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	stats.Results = nres
	return finishKeyed(out), stats, nil
}

// rangeFilter is the range query's push-down: a point inside the window
// requires its covering feature box to intersect the window, so the boxes
// reject cheaply before the exact walk over the points.
func rangeFilter(window geo.Rect) rowFilter {
	return func(v traj.RowView) bool {
		var boxBuf [filterScratch]geo.Rect
		boxes := v.AppendBoxes(boxBuf[:0])
		if len(boxes) > 0 {
			hit := false
			for _, b := range boxes {
				if b.Intersects(window) {
					hit = true
					break
				}
			}
			if !hit {
				return false
			}
		}
		return v.AnyPointIn(window)
	}
}
