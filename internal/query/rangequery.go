package query

import (
	"context"
	"time"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/kv"
	"repro/internal/store"
	"repro/internal/traj"
)

// rangeQuery runs a spatial range query: every stored trajectory with at
// least one point inside window. The XZ* cover prunes index spaces whose
// quads all miss the window; a pushed-down filter checks the DP feature boxes
// and then the exact points before a row ships.
func (e *Engine) rangeQuery(ctx context.Context, window geo.Rect, w TimeWindow, sink func(Result) error) ([]Result, *Stats, error) {
	stats := &Stats{}

	// One snapshot per query (see threshold).
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
		return snap.ScanRangesStream(sctx, ranges, filter, 0, store.StreamOptions{}, emit)
	}

	// Range results carry no distance; refinement here is the client-side
	// decode of every shipped row, which still profits from the pool on
	// large windows.
	var out []keyedResult
	nres := 0
	err = e.refineFromScan(ctx, stats, scan,
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
